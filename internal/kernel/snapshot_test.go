package kernel_test

import (
	"encoding/json"
	"testing"

	. "ghost/internal/kernel"
	"ghost/internal/sim"
)

// TestRestoreImageRejectsBadRecords: RestoreImage takes CPU ids and
// action kinds from the file, so each out-of-range value is an error,
// not a panic or an unknown kind installed on a thread. The records are
// edited after a JSON round trip, where a damaged image would be.
func TestRestoreImageRejectsBadRecords(t *testing.T) {
	env := newTestEnv(t, smallTopo())
	ac := NewAgentClass(env.k)
	th := env.k.Spawn(SpawnOpts{Name: "loop", Class: env.cfs}, func(tc *TaskContext) Op {
		return tc.Run(100 * sim.Microsecond)
	})
	th.SetBodyDesc(&BodyDesc{Kind: "loop"})
	ag := env.k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)}, agentBody(func(sim.Time) (sim.Duration, Op) {
		return 100, Spin()
	}))
	env.k.Wake(ag)
	env.eng.RunFor(sim.Millisecond)
	img, err := env.k.SaveImage()
	if err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	data, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() *KernelImage {
		var out KernelImage
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	if err := env.k.RestoreImage(decode()); err != nil {
		t.Fatalf("RestoreImage of the unedited image: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*KernelImage)
	}{
		{"cpu record past the last CPU", func(img *KernelImage) { img.CPUs[0].ID = 4 }},
		{"negative cpu record", func(img *KernelImage) { img.CPUs[0].ID = -1 }},
		{"thread on a CPU past the last", func(img *KernelImage) { img.Threads[0].CPU = 4 }},
		{"thread on cpu -2", func(img *KernelImage) { img.Threads[0].CPU = -2 }},
		{"no action kind", func(img *KernelImage) { img.Threads[0].CurKind = 0 }},
		{"unknown action kind", func(img *KernelImage) { img.Threads[1].CurKind = 7 }},
		{"Run as follow-up", func(img *KernelImage) { img.Threads[0].AfterKind = 1 }},
		{"unknown follow-up", func(img *KernelImage) { img.Threads[1].AfterKind = 9 }},
	} {
		img := decode()
		c.edit(img)
		if err := env.k.RestoreImage(img); err == nil {
			t.Errorf("%s: RestoreImage accepted the record", c.name)
		}
	}
}

// TestThreadRecDecodesLegacyAgentRecords: records written while agents ran
// through a step callback carry "stepper". Their afterKind was pending
// only with workDoneIsAfterFn, and their Block, current or follow-up,
// decodes as Park (kind 6); a body thread's record is taken as is.
func TestThreadRecDecodesLegacyAgentRecords(t *testing.T) {
	for _, c := range []struct {
		json               string
		curKind, afterKind int
	}{
		{`{"tid":1,"stepper":true,"state":2,"curKind":5,"afterKind":5}`, 5, 0},
		{`{"tid":2,"stepper":true,"state":3,"curKind":2}`, 6, 0},
		{`{"tid":3,"stepper":true,"state":3,"curKind":6}`, 6, 0},
		{`{"tid":4,"stepper":true,"state":2,"curKind":1,"pendingWork":300,"workDoneIsAfterFn":true,"afterKind":2}`, 1, 6},
		{`{"tid":5,"stepper":true,"state":2,"curKind":1,"pendingWork":300,"workDoneIsAfterFn":true,"afterKind":5}`, 1, 5},
		{`{"tid":6,"state":3,"curKind":2}`, 2, 0},
		{`{"tid":7,"state":2,"curKind":1,"pendingWork":300,"afterKind":6}`, 1, 6},
	} {
		var rec ThreadRec
		if err := json.Unmarshal([]byte(c.json), &rec); err != nil {
			t.Fatalf("%s: %v", c.json, err)
		}
		if rec.CurKind != c.curKind || rec.AfterKind != c.afterKind {
			t.Errorf("%s: curKind %d afterKind %d, want %d %d", c.json, rec.CurKind, rec.AfterKind, c.curKind, c.afterKind)
		}
		if rec.TID == 0 || rec.State == 0 {
			t.Errorf("%s: plain fields not decoded: %+v", c.json, rec)
		}
	}
}
