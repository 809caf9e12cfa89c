package mem

import (
	"bytes"
	"reflect"
	"testing"
)

// TestReleaseScrubsPages dirties an address space every way a process
// can — writes, Protect, a checkpoint and a restore that recycles a
// run-created page — takes a code stamp, then releases it and maps the
// same ranges in a new Memory. Whatever recycled storage the new Memory
// draws must be indistinguishable from fresh: all-zero bytes, the
// regions a fresh Memory reports, pages that checkpoint and restore
// correctly, a stale stamp that never validates, and no stamp bumps
// counted for the release.
func TestReleaseScrubsPages(t *testing.T) {
	type span struct {
		addr, size uint32
		perm       Perm
	}
	spans := []span{
		{0x08048000, 3 * PageSize, RX},
		{0x08100000, 2 * PageSize, RW},
		{0xBFFF0000, 16 * PageSize, RW},
	}
	fresh := &Memory{}
	for _, s := range spans {
		mustMap(t, fresh, s.addr, s.size, s.perm)
	}
	wantRegions := fresh.Regions()
	junk := bytes.Repeat([]byte{0xA5}, 16*PageSize)

	reused := 0
	for iter := 0; iter < 8; iter++ {
		m := New()
		var st Stats
		m.SetStats(&st)
		for _, s := range spans {
			mustMap(t, m, s.addr, s.size, RWX)
			if err := m.LoadRaw(s.addr, junk[:s.size]); err != nil {
				t.Fatal(err)
			}
			if err := m.Protect(s.addr, s.size, s.perm); err != nil {
				t.Fatal(err)
			}
		}
		cp := m.Checkpoint()
		mustMap(t, m, 0x08200000, PageSize, RW) // run-created, recycled by Restore
		if err := m.Write32(0xBFFF0000, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(cp); err != nil {
			t.Fatal(err)
		}
		// Dirty every page again, so each is released stamped with the
		// live checkpoint epoch.
		for _, s := range spans {
			for a := s.addr; a < s.addr+s.size; a += PageSize {
				m.PokeWord(a, 0x11111111)
			}
		}
		old := map[*page]bool{}
		for _, tab := range m.l1 {
			if tab != nil {
				for _, p := range tab.pages {
					old[p] = p != nil
				}
			}
		}
		for _, p := range m.free {
			old[p] = true
		}
		stamp, val := m.CodeStamp(spans[0].addr)
		bumps := st.StampBumps
		m.Release()
		if st.StampBumps != bumps {
			t.Fatalf("Release counted %d stamp bumps", st.StampBumps-bumps)
		}
		if *stamp == val {
			t.Fatal("a code stamp taken before Release still validates")
		}

		n := New()
		var nst Stats
		n.SetStats(&nst)
		for _, s := range spans {
			mustMap(t, n, s.addr, s.size, s.perm)
		}
		if nst.StampBumps != 0 {
			t.Fatalf("new memory starts at %d stamp bumps", nst.StampBumps)
		}
		if got := n.Regions(); !reflect.DeepEqual(got, wantRegions) {
			t.Fatalf("regions %v, fresh memory has %v", got, wantRegions)
		}
		zero := make([]byte, 16*PageSize)
		for _, s := range spans {
			b, ok := n.PeekRaw(s.addr, int(s.size))
			if !ok || !bytes.Equal(b, zero[:s.size]) {
				t.Fatalf("iteration %d: recycled span at 0x%08x is not all zero", iter, s.addr)
			}
			for a := s.addr; a < s.addr+s.size; a += PageSize {
				if old[n.page(a)] {
					reused++
				}
			}
		}
		// A page carrying a stale checkpoint epoch would look already
		// saved to n's first checkpoint and escape its undo log.
		ncp := n.Checkpoint()
		for _, s := range spans {
			for a := s.addr; a < s.addr+s.size; a += PageSize {
				n.PokeWord(a, 1)
			}
		}
		if err := n.Restore(ncp); err != nil {
			t.Fatal(err)
		}
		for _, s := range spans {
			if b, _ := n.PeekRaw(s.addr, int(s.size)); !bytes.Equal(b, zero[:s.size]) {
				t.Fatalf("iteration %d: restore over recycled pages at 0x%08x left writes behind", iter, s.addr)
			}
		}
		if *stamp == val {
			t.Fatal("a code stamp taken before Release validates in the new memory")
		}
		n.Release()
	}
	if reused == 0 {
		t.Fatal("no released page was reused, so nothing was checked")
	}
}
