package can

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestFrameBitsKnownValues(t *testing.T) {
	// Standard worst-case CAN 2.0A frame lengths (47 + 8s + floor((34+8s-1)/4)).
	cases := []struct{ size, want int }{
		{0, 47 + 0 + 8},   // 55
		{1, 47 + 8 + 10},  // 65
		{2, 47 + 16 + 12}, // 75
		{8, 47 + 64 + 24}, // 135
	}
	for _, c := range cases {
		if got := FrameBits(c.size); got != c.want {
			t.Errorf("FrameBits(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestFrameBitsPanicsOutOfRange(t *testing.T) {
	for _, size := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FrameBits(%d) did not panic", size)
				}
			}()
			FrameBits(size)
		}()
	}
}

func TestFrames(t *testing.T) {
	cases := []struct{ size, want int }{
		{0, 1}, {1, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 3}, {32, 4},
	}
	for _, c := range cases {
		if got := Frames(c.size); got != c.want {
			t.Errorf("Frames(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestMessageBits(t *testing.T) {
	if got, want := MessageBits(8), FrameBits(8); got != want {
		t.Errorf("MessageBits(8) = %d, want %d", got, want)
	}
	if got, want := MessageBits(12), FrameBits(8)+FrameBits(4); got != want {
		t.Errorf("MessageBits(12) = %d, want %d", got, want)
	}
	if got, want := MessageBits(32), 4*FrameBits(8); got != want {
		t.Errorf("MessageBits(32) = %d, want %d", got, want)
	}
	if got, want := MessageBits(0), FrameBits(0); got != want {
		t.Errorf("MessageBits(0) = %d, want %d", got, want)
	}
}

func TestMessageTime(t *testing.T) {
	if got := MessageTime(8, 2); got != model.Time(2*135) {
		t.Errorf("MessageTime(8, 2) = %d, want 270", got)
	}
}

func TestTimeOfOverride(t *testing.T) {
	cfg := model.CANConfig{BitTime: 1}
	e := &model.Edge{Size: 8}
	if got := TimeOf(e, cfg); got != 135 {
		t.Errorf("TimeOf(derived) = %d, want 135", got)
	}
	e.CANTime = 10 // the paper's §4.2 example uses C_m = 10 ms
	if got := TimeOf(e, cfg); got != 10 {
		t.Errorf("TimeOf(override) = %d, want 10", got)
	}
}

func TestPropertyMessageBitsMonotone(t *testing.T) {
	f := func(raw uint16) bool {
		size := int(raw % 256)
		return MessageBits(size+1) > MessageBits(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMessageBitsBounds(t *testing.T) {
	// Worst-case stuffing never exceeds 25% of stuffable bits and each
	// frame always carries its overhead.
	f := func(raw uint16) bool {
		size := int(raw % 256)
		bits := MessageBits(size)
		frames := Frames(size)
		if bits < frames*frameOverheadBits+8*size {
			return false
		}
		return bits <= frames*(frameOverheadBits+(stuffableBits-1)/4)+8*size+2*size // generous cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
