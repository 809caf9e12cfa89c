package kernel

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/telemetry"
)

// twoBlockLoop runs a two-block loop long enough to warm the decode,
// block and trace caches, so releasing it hands back all three arrays.
const twoBlockLoop = `
	.text
	.global main
main:
	mov eax, 400
	mov ebx, 0
top:
	add ebx, 3
	jmp mid
mid:
	sub eax, 1
	cmp eax, 0
	jnz top
	mov eax, 0
	ret
`

// TestReleaseRecyclesProcess releases a finished process and checks that
// the release is final — Mem and CPU are gone, so a stray use is a nil
// dereference rather than a read of recycled memory, and a second
// Release does nothing — and that later loads drawing from the recycled
// pages and cache arrays, sequential or concurrent, run exactly like the
// first.
func TestReleaseRecyclesProcess(t *testing.T) {
	ld, err := Link(Libc(), asm.MustAssemble("loop", twoBlockLoop))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Process, map[string]uint64) {
		t.Helper()
		p, err := Load(ld, Config{DEP: true, ASLR: true, ASLRSeed: 11, CanarySeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ins := AttachInstruments(p, &telemetry.Spec{})
		if st := p.Run(); st != cpu.Exited {
			t.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		return p, ins.Snap(p, ins.SinceAttach(p)).Counters
	}
	p, want := run()
	if want["cpu.trace.formed"] == 0 {
		t.Fatalf("the loop formed no trace, so no trace cache is recycled: %v", want)
	}
	p.Release()
	if p.Mem != nil || p.CPU != nil {
		t.Fatal("Release left the process's memory or CPU reachable")
	}
	p.Release() // a second Release does nothing
	func() {
		defer func() {
			if _, ok := recover().(runtime.Error); !ok {
				t.Fatal("Run after Release did not fail with a runtime error")
			}
		}()
		p.Run()
	}()
	for i := 0; i < 4; i++ {
		q, got := run()
		q.Release()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d over recycled storage: counters %v, first run %v", i, got, want)
		}
	}

	// Workers share the pools: storage one releases, another loads into.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q, err := Load(ld, Config{DEP: true, ASLR: true, ASLRSeed: 11, CanarySeed: 5})
				if err != nil {
					t.Error(err)
					return
				}
				ins := AttachInstruments(q, &telemetry.Spec{})
				q.Run()
				got := ins.Snap(q, ins.SinceAttach(q)).Counters
				q.Release()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent run over recycled storage: counters %v, first run %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
