// Package can models the controller area network bus of the ETC: exact
// worst-case frame transmission times (CAN 2.0A, 11-bit identifiers, with
// worst-case bit stuffing) and the priority conventions used by the
// analysis and the simulator.
//
// Messages larger than the 8-byte CAN payload are segmented into
// back-to-back frames by the kernel; their worst-case transmission time
// is the sum of the worst-case frame times. Following the paper, the
// analysis treats a multi-frame message as one unit of load C_m.
package can

import (
	"fmt"

	"repro/internal/model"
)

// MaxPayload is the CAN data field limit in bytes.
const MaxPayload = 8

// frameOverheadBits is the number of bits of a CAN 2.0A data frame
// outside the data field: SOF(1) + ID(11) + RTR(1) + IDE(1) + r0(1) +
// DLC(4) + CRC(15) + CRC del(1) + ACK(2) + EOF(7) + interframe space(3).
const frameOverheadBits = 47

// stuffableBits is the number of overhead bits exposed to bit stuffing
// (everything before the CRC delimiter except the fixed-form fields):
// the standard analysis value of 34.
const stuffableBits = 34

// FrameBits returns the worst-case length in bits of a single data frame
// carrying size bytes (0 <= size <= MaxPayload), including worst-case
// stuff bits floor((34 + 8*size - 1) / 4).
func FrameBits(size int) int {
	if size < 0 || size > MaxPayload {
		panic(fmt.Sprintf("can: frame payload %d outside [0,%d]", size, MaxPayload))
	}
	data := 8 * size
	stuff := 0
	if stuffableBits+data >= 1 {
		stuff = (stuffableBits + data - 1) / 4
	}
	return frameOverheadBits + data + stuff
}

// Frames returns how many CAN frames a message of size bytes occupies.
func Frames(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + MaxPayload - 1) / MaxPayload
}

// MessageBits returns the worst-case number of bus bits needed to send a
// message of size bytes, segmented into full frames plus a remainder
// frame.
func MessageBits(size int) int {
	if size < 0 {
		panic(fmt.Sprintf("can: negative message size %d", size))
	}
	if size == 0 {
		return FrameBits(0)
	}
	full := size / MaxPayload
	rem := size % MaxPayload
	bits := full * FrameBits(MaxPayload)
	if rem > 0 {
		bits += FrameBits(rem)
	}
	return bits
}

// MessageTime returns C_m, the worst-case time to transmit a message of
// size bytes on a bus whose bit takes bitTime ticks.
func MessageTime(size int, bitTime model.Time) model.Time {
	return model.Time(MessageBits(size)) * bitTime
}

// TimeOf returns the worst-case CAN transmission time of edge e: the
// explicit override when the model carries one, otherwise the exact
// frame-time computation from the edge size and the bus bit time.
func TimeOf(e *model.Edge, cfg model.CANConfig) model.Time {
	if e.CANTime > 0 {
		return e.CANTime
	}
	return MessageTime(e.Size, cfg.BitTime)
}
