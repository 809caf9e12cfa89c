package harness

// Warm per-worker trial instances. A sweep cell whose victim layout is
// trial-invariant (no per-trial ASLR or canary reseeding) pays the
// load-time cost once per (worker, cell): the first trial a worker runs
// of such a cell constructs a WarmInstance — load the victim, take a
// pristine snapshot — and every trial after that resets the process via
// the ~µs snapshot Restore instead of a fresh compile-link-load.
//
// A worker holds at most one live instance. Units are enqueued
// cell-major and each worker takes them in channel order, so a worker's
// cell index never decreases: once it takes a unit of another cell, it
// never returns to the one before. That is when the engine releases the
// old instance (and when the worker exits), so a sweep keeps at most
// Jobs warm processes alive and their pages and code caches go back to
// the pools later loads draw from.
//
// Warm reuse is an optimization with the same determinism contract as
// the rest of the engine: a warm-served trial must produce the same
// TrialResult (and, when telemetry is on, the same metric snapshot) as
// the cold path. The scenario layer is responsible for attaching a
// WarmSpec only when it can prove that — the engine's job is the
// fallback: any cell without a spec, any worker whose New fails, and
// any instance that panics mid-trial runs cold.

// WarmSpec opts a scenario into per-worker warm process reuse.
type WarmSpec struct {
	// New constructs one warm instance: build and load the cell's
	// victim, snapshot it pristine, return a runner that restores the
	// snapshot per trial. Called lazily, at most once per (worker,
	// cell). An error permanently disables warm reuse for that worker —
	// its trials fall back to the scenario's cold Run path — so a
	// scenario whose reset-safety can only be checked at build time
	// (e.g. a stateful input source) may simply return the error.
	New func() (WarmInstance, error)
}

// WarmInstance runs trials against one reusable loaded process. It is
// owned by a single worker goroutine and never shared, so
// implementations need no locking. Each worker keeps one live instance,
// for the cell it is running. An instance that also has a Release()
// method is released when the worker moves to another cell or exits;
// one that panicked is dropped without it, since its state is suspect.
type WarmInstance interface {
	// RunTrial restores the pristine snapshot and executes one trial.
	RunTrial(t Trial) TrialResult
}

// warmState is one worker's current warm instance and tallies. Workers
// index tallies by their own id, so no locking is needed until the
// engine sums them after the pool joins.
type warmState struct {
	si     int          // scenario index inst belongs to; -1 = none yet
	inst   WarmInstance // nil = New failed, panicked, or no spec
	warmed int          // trials served by Restore
	cold   int          // trials served by a fresh cold load
}

// runUnit executes one (scenario, trial) unit, preferring the warm path
// when the scenario offers one and this worker's instance is healthy.
func (ws *warmState) runUnit(s Scenario, si int, t Trial) TrialResult {
	if si != ws.si {
		ws.release()
		ws.si = si
		if s.Warm != nil {
			inst, err := s.Warm.New()
			if err == nil { // else not warm-safe: cold for this cell
				ws.inst = inst
			}
		}
	}
	if ws.inst != nil {
		res, ok := runWarmTrial(ws.inst, t)
		if ok {
			ws.warmed++
			return res
		}
		// The instance panicked: its process state is suspect, so drop
		// it unreleased and run everything (this trial included) cold.
		ws.inst = nil
	}
	ws.cold++
	return runTrial(s, t)
}

// release hands the current instance's resources back, if it has any.
func (ws *warmState) release() {
	if r, ok := ws.inst.(interface{ Release() }); ok {
		r.Release()
	}
	ws.inst = nil
}

// runWarmTrial invokes the warm instance, reporting ok=false on panic
// so the caller can discard the instance and retry cold.
func runWarmTrial(inst WarmInstance, t Trial) (res TrialResult, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
		}
	}()
	return inst.RunTrial(t), true
}
