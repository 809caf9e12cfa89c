package core

import (
	"errors"
	"fmt"

	"softsec/internal/harness"
	"softsec/internal/kernel"
)

// Warm trial instances for attack cells whose victim is trial-invariant:
// the mitigation config carries no per-trial reseeding, so every cold
// trial would load the exact same binary at the exact same layout and
// differ only in the input cursor and run state — precisely what
// kernel.Snapshot/Restore resets. A warm cell loads once per worker,
// snapshots the pristine process, and serves each trial by Restore.
//
// Result equivalence with the cold path, piece by piece:
//
//   - layout/canary: the config is static (attackCell attaches a warm
//     path only when no per-trial reseeding applies), so the cold
//     path's per-trial Load draws the same layout and canary every
//     time; Restore reproduces them from the snapshot.
//   - input: Restore re-arms Config.Input with a fresh clone of the
//     pristine input, matching the clone the cold Load performs. New
//     refuses inputs that cannot clone (stateful InputFunc closures),
//     falling the worker back to cold loads.
//   - CFI policy: installed once before the snapshot; the policy is
//     configuration, not run state, and Restore leaves it in place —
//     same as the cold path installing it after every load.
//   - telemetry: instruments attach fresh per trial in both paths. The
//     one asymmetry is the CPU's internal decode/block/trace caches,
//     which survive Restore (they are semantically transparent but
//     instrumented): telemetry trials therefore drop them via
//     ResetCaches before attaching, making every instrumented trial
//     start exactly as cold as a fresh load.
//
// PostLoad hooks are refused wholesale: they run arbitrary per-load
// code the snapshot cannot prove idempotent.

// errNotWarmSafe marks scenarios the warm path must not serve.
var errNotWarmSafe = errors.New("core: scenario is not warm reset-safe")

// warmCell is one worker's reusable loaded process for one cell.
type warmCell struct {
	s    Scenario
	p    *kernel.Process
	snap *kernel.Snapshot
}

// newWarmCell builds the cell's victim once and snapshots it pristine.
// All builds go through the uncounted cache mode (cache.go): how many
// workers warm a cell is a scheduling artifact that must never move
// the deterministic build-cache counters.
func newWarmCell(a AttackSpec, m Mitigations) (*warmCell, error) {
	s, err := a.scenarioVia(m, false)
	if err != nil {
		return nil, err
	}
	if s.PostLoad != nil {
		return nil, fmt.Errorf("%w: PostLoad hook", errNotWarmSafe)
	}
	if s.Attacker != nil {
		if _, ok := s.Attacker.(interface{ CloneInput() kernel.InputSource }); !ok {
			return nil, fmt.Errorf("%w: input source cannot clone", errNotWarmSafe)
		}
	}
	p, err := loadVictim(s, m, false)
	if err != nil {
		return nil, err
	}
	return &warmCell{s: s, p: p, snap: p.Snapshot()}, nil
}

// RunTrial implements harness.WarmInstance: restore the pristine
// snapshot, then run and classify as RunCollected does.
func (w *warmCell) RunTrial(t harness.Trial) harness.TrialResult {
	p := w.p
	// Drop the previous trial's event/profiler hooks before restoring:
	// Restore emits a restore event and notifies the profiler, neither
	// of which belongs to the trial about to run.
	p.CPU.Events = nil
	p.CPU.Prof = nil
	if err := p.Restore(w.snap); err != nil {
		return harness.TrialResult{Err: fmt.Errorf("core: warm restore: %w", err)}
	}
	if t.Telemetry != nil {
		p.CPU.ResetCaches()
	}
	r, snap := runLoaded(p, w.s.Goal, t.Telemetry)
	return trialResult(r, snap, nil)
}

// Release recycles the cell's process once its worker has moved on to
// another cell; the harness calls it through an optional interface.
func (w *warmCell) Release() { w.p.Release() }
