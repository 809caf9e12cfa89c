//go:build !race

package softsec

import (
	"runtime"
	"testing"

	"softsec/internal/cpu"
	"softsec/internal/fuzz"
	"softsec/internal/kernel"
)

// Machine-invariant allocation gates for the process lifecycle: the
// per-trial allocation counts of a cold load on recycled storage, a
// snapshot restore, and a fresh load. Unlike wall time they do not
// depend on the machine, so they are pinned exactly at their measured
// values. The file is excluded under -race: the race detector makes
// sync.Pool drop items on purpose, so recycled storage is not recycled
// there.

// TestAllocsColdLoadRecycled pins a reseeded cold trial — Load with a
// fresh ASLR layout and canary, Run, Release — on storage released by
// the trial before it (BenchmarkFullReload/aslr+canary). Besides the
// count, the bytes per trial are gated: pages, code caches and the ASLR
// generator all come back recycled, so what is left is small objects
// (about 1.3–1.9 KB); a 4.9 KB generator or a page per trial fails it.
func TestAllocsColdLoadRecycled(t *testing.T) {
	ld := quickstartLinked(t)
	in := kernel.ScriptInput{[]byte("hello")}
	seed := int64(0)
	trial := func() {
		seed++
		p, err := kernel.Load(ld, kernel.Config{DEP: true, ASLR: true, ASLRSeed: seed, CanarySeed: seed, Input: &in})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Run(); st != cpu.Exited {
			t.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		p.Release()
	}
	allocs := testing.AllocsPerRun(200, trial)
	if allocs > 7 {
		t.Fatalf("cold load on recycled storage: %v allocs per trial, gate is 7", allocs)
	}
	const n, gate = 200, 3 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		trial()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes per trial", per)
	if per > gate {
		t.Fatalf("cold load on recycled storage: %d bytes per trial, gate is %d", per, gate)
	}
}

// TestAllocsSnapshotRestore pins the warm trial: Run to completion, then
// Restore to the post-Load snapshot (BenchmarkSnapshotRestore).
func TestAllocsSnapshotRestore(t *testing.T) {
	ld := quickstartLinked(t)
	in := kernel.ScriptInput{[]byte("hello")}
	p, err := kernel.Load(ld, kernel.Config{DEP: true, Input: &in})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	allocs := testing.AllocsPerRun(200, func() {
		if st := p.Run(); st != cpu.Exited {
			t.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		if err := p.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("snapshot restore + run: %v allocs per trial, gate is 3", allocs)
	}
}

// TestAllocsFullReload pins a fresh load that is never released
// (BenchmarkFullReload/dep): every page, table and the Memory itself
// are new, and the one-shot run allocates no code cache.
func TestAllocsFullReload(t *testing.T) {
	ld := quickstartLinked(t)
	in := kernel.ScriptInput{[]byte("hello")}
	allocs := testing.AllocsPerRun(50, func() {
		p, err := kernel.Load(ld, kernel.Config{DEP: true, Input: &in})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Run(); st != cpu.Exited {
			t.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
	})
	if allocs > 28 {
		t.Fatalf("full reload: %v allocs per trial, gate is 28", allocs)
	}
}

// TestAllocsFuzzCampaignReleased checks that a finished fuzz campaign
// hands its victim back (fuzz.RunCollected releases it): repeated
// identical campaigns then reuse the victim's pages and code-cache
// arrays, so the heap allocated per campaign stays below the size of one
// decode-cache array (4096 entries of 56 bytes) — a campaign that
// allocated its caches anew would pay that and the block cache on top.
func TestAllocsFuzzCampaignReleased(t *testing.T) {
	const decodeArrayBytes = 4096 * 56
	v := fuzz.Victims()[0]
	cfg := fuzz.Config{Name: v.Name, Source: v.Source, Seed: 1, MaxExecs: 200}
	campaign := func() {
		if _, _, err := fuzz.RunCollected(cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	campaign() // the build caches and the pools fill here
	const n = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		campaign()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes per campaign", per)
	if per >= decodeArrayBytes {
		t.Fatalf("fuzz campaign allocates %d bytes, gate is one decode-cache array (%d bytes)", per, decodeArrayBytes)
	}
}
