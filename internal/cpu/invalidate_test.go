package cpu

import (
	"errors"
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
)

// tierOutcome is what one run of a program leaves behind that every
// engine tier must agree on.
type tierOutcome struct {
	state State
	fault mem.Fault // the memory fault under a FaultMemory, if any
	steps uint64
	reg   [isa.NumRegs]uint32
}

// TestStructuralEventsAcrossTiers protects, unmaps and remaps a text page
// under hot cached decodes, blocks and traces, and checks that the
// stepping, block and trace tiers then run identically: page write
// stamps alone must retire every cached span over the page. A second
// text page the events never touch must stay warm — its loop keeps
// hitting without a single block rebuild.
func TestStructuralEventsAcrossTiers(t *testing.T) {
	const (
		hotIters = 100 // the loop on text page A, run hot before the event
		newIters = 37  // the loop LoadRaw puts at the same address
		// The loop on text page B starts at an offset whose decode,
		// block and trace slots no page A address shares, so only a
		// stale stamp could make it rebuild.
		pageB = textBase + mem.PageSize + 0x100
	)
	events := []struct {
		name  string
		event func(t *testing.T, m *mem.Memory)
		check func(t *testing.T, o tierOutcome)
	}{
		{
			name: "protect-rw",
			event: func(t *testing.T, m *mem.Memory) {
				if err := m.Protect(textBase, mem.PageSize, mem.RW); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, o tierOutcome) {
				want := mem.Fault{Kind: mem.FaultProtection, Addr: textBase, Access: mem.X, Have: mem.RW}
				if o.state != Faulted || o.fault != want || o.steps != 0 {
					t.Fatalf("state %v fault %+v after %d steps, want %+v at the first fetch", o.state, o.fault, o.steps, want)
				}
			},
		},
		{
			name: "unmap-map-loadraw",
			event: func(t *testing.T, m *mem.Memory) {
				if err := m.Unmap(textBase, mem.PageSize); err != nil {
					t.Fatal(err)
				}
				if err := m.Map(textBase, mem.PageSize, mem.RX); err != nil {
					t.Fatal(err)
				}
				if err := m.LoadRaw(textBase, chainCode(3, newIters)); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, o tierOutcome) {
				if o.state != Halted || o.reg[isa.ESI] != newIters {
					t.Fatalf("state %v esi %d, want the new loop to halt at %d", o.state, o.reg[isa.ESI], newIters)
				}
			},
		},
		{
			name: "checkpoint-unmap-restore",
			event: func(t *testing.T, m *mem.Memory) {
				cp := m.Checkpoint()
				if err := m.Unmap(textBase, mem.PageSize); err != nil {
					t.Fatal(err)
				}
				if err := m.Restore(cp); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, o tierOutcome) {
				if o.state != Halted || o.reg[isa.ESI] != hotIters {
					t.Fatalf("state %v esi %d, want the original loop to halt at %d", o.state, o.reg[isa.ESI], hotIters)
				}
			},
		},
	}
	tiers := []struct {
		name         string
		block, trace bool
	}{
		{"step", false, false},
		{"block", true, false},
		{"trace", true, true},
	}

	savedB, savedT := UseBlockEngine, UseTraceEngine
	defer func() { UseBlockEngine, UseTraceEngine = savedB, savedT }()
	for _, ev := range events {
		t.Run(ev.name, func(t *testing.T) {
			var ref tierOutcome
			for i, tier := range tiers {
				UseBlockEngine, UseTraceEngine = tier.block, tier.trace
				c := newMachine(t, chainCode(3, hotIters))
				if err := c.Mem.LoadRaw(pageB, chainCode(3, hotIters)); err != nil {
					t.Fatal(err)
				}
				bs, ts := &BlockStats{}, &TraceStats{}
				c.BlockStats, c.TraceStats = bs, ts
				run := func(pc uint32) tierOutcome {
					c.RestoreArch(ArchState{})
					c.IP = pc
					c.Reg[isa.ESP] = stackTop
					st := c.Run(1 << 20)
					o := tierOutcome{state: st, steps: c.Steps, reg: c.Reg}
					var mf *mem.Fault
					if f := c.Fault(); f != nil && errors.As(f.Err, &mf) {
						o.fault = *mf
					}
					return o
				}
				// Page B runs twice, so even its once-per-run HLT passes
				// the hotness gate and is built before the event.
				for _, pc := range []uint32{textBase, pageB, pageB} {
					if o := run(pc); o.state != Halted || o.reg[isa.ESI] != hotIters {
						t.Fatalf("%s: warm-up at %#x: state %v esi %d", tier.name, pc, o.state, o.reg[isa.ESI])
					}
				}
				if tier.trace && ts.Formed == 0 {
					t.Fatalf("%s: no trace formed before the event", tier.name)
				}

				ev.event(t, c.Mem)
				got := run(textBase)
				ev.check(t, got)
				if i == 0 {
					ref = got
				} else if got != ref {
					t.Fatalf("%s diverged from step:\n%+v\nvs\n%+v", tier.name, got, ref)
				}

				if tier.block {
					builds, hits, disp := bs.Builds, bs.Hits, ts.Dispatches
					if o := run(pageB); o.state != Halted || o.reg[isa.ESI] != hotIters {
						t.Fatalf("%s: untouched page B: state %v esi %d", tier.name, o.state, o.reg[isa.ESI])
					}
					if bs.Builds != builds {
						t.Fatalf("%s: page B rebuilt %d blocks after an event on page A", tier.name, bs.Builds-builds)
					}
					if bs.Hits == hits {
						t.Fatalf("%s: page B's blocks missed after an event on page A", tier.name)
					}
					if tier.trace && ts.Dispatches == disp {
						t.Fatalf("%s: page B's trace was not dispatched after an event on page A", tier.name)
					}
				}
			}
		})
	}
}
