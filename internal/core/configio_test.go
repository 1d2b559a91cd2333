package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestLoadConfigRejects checks that LoadConfig refuses, naming the
// entry, every priority entry the vectors cannot hold (an ID outside
// the application, an ID given twice, NoPriority as a priority), and,
// through Validate, a negative priority of an ET process or a CAN
// message.
func TestLoadConfigRejects(t *testing.T) {
	app, arch, p, m := fig4System(t)
	cfg := fig4Config(app, arch, true, true, p, m)
	if err := cfg.Normalize(app); err != nil {
		t.Fatal(err)
	}
	// The lowest priority Validate allows loads back.
	cfg.ProcPriority[p[1]], cfg.MsgPriority[m[0]] = 0, 0
	var valid bytes.Buffer
	if err := cfg.Save(&valid); err != nil {
		t.Fatal(err)
	}
	if loaded, err := LoadConfig(bytes.NewReader(valid.Bytes()), app, arch); err != nil || ConfigKey(loaded) != ConfigKey(cfg) {
		t.Fatalf("the saved configuration does not load back: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(f *configFile)
		want   string
	}{
		{"proc ID past the end", func(f *configFile) { f.ProcPriority[0].Proc = model.ProcID(len(app.Procs)) }, "procPriority[0] (process 4): ID out of range"},
		{"negative proc ID", func(f *configFile) { f.ProcPriority[1].Proc = -1 }, "procPriority[1] (process -1): ID out of range"},
		{"edge ID past the end", func(f *configFile) { f.MsgPriority[2].Edge = model.EdgeID(len(app.Edges) + 5) }, "msgPriority[2] (edge 8): ID out of range"},
		{"duplicate proc ID", func(f *configFile) {
			f.ProcPriority = append(f.ProcPriority, procPrioJSON{f.ProcPriority[0].Proc, 9})
		}, "procPriority[2] (process 1): duplicate ID"},
		{"duplicate edge ID", func(f *configFile) { f.MsgPriority[1].Edge = f.MsgPriority[0].Edge }, "msgPriority[1] (edge 0): duplicate ID"},
		{"negative proc priority", func(f *configFile) { f.ProcPriority[0].Priority = -1 }, `ET process "P2" has negative priority -1`},
		{"negative message priority", func(f *configFile) { f.MsgPriority[2].Priority = -3 }, `CAN message "m3" has negative priority -3`},
		{"NoPriority as a message priority", func(f *configFile) { f.MsgPriority[0].Priority = math.MinInt }, "msgPriority[0] (edge 0): priority -9223372036854775808 is NoPriority"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f configFile
			if err := json.Unmarshal(valid.Bytes(), &f); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&f)
			raw, err := json.Marshal(&f)
			if err != nil {
				t.Fatal(err)
			}
			_, err = LoadConfig(bytes.NewReader(raw), app, arch)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadConfig error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
