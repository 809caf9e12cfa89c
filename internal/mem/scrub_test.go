package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scrubSlots are the page runs the scrub property draws mappings from:
// text-like and stack-like runs in two second-level tables, and a run
// straddling the boundary between two tables.
var scrubSlots = []struct {
	addr, pages uint32
}{
	{0x08048000, 6},
	{0xBFFF0000, 8},
	{0x003FE000, 4}, // pages 0x3FE..0x401: two tables
}

// scrubPerms are the permissions the property maps and protects with.
var scrubPerms = []Perm{R, RW, RX, RWX}

// dirtyRandomly applies a random sequence of the operations that write
// page content or move pages — Write8, Write32 (page-crossing too),
// WriteBytes, LoadRaw, PokeWord, Map, Unmap, Protect, Checkpoint and
// Restore — to m. Every sequence also unmaps a checkpoint page and
// restores, so Restore recreates a page whole.
func dirtyRandomly(t *testing.T, rng *rand.Rand, m *Memory) {
	t.Helper()
	slot := func() (uint32, uint32) {
		s := scrubSlots[rng.Intn(len(scrubSlots))]
		first := uint32(rng.Intn(int(s.pages)))
		n := 1 + uint32(rng.Intn(int(s.pages-first)))
		return s.addr + first*PageSize, n * PageSize
	}
	addr := func() uint32 {
		a, size := slot()
		return a + uint32(rng.Intn(int(size)))
	}
	junk := make([]byte, 8*PageSize)
	rng.Read(junk)
	var cp *Checkpoint
	for op := 0; op < 60; op++ {
		switch rng.Intn(11) {
		case 0, 1:
			a, size := slot()
			ok := true // Map rejects overlaps
			for p := a; p < a+size; p += PageSize {
				ok = ok && !m.Mapped(p)
			}
			if ok {
				if err := m.Map(a, size, scrubPerms[rng.Intn(len(scrubPerms))]); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			a, size := slot()
			if err := m.Unmap(a, size); err != nil {
				t.Fatal(err)
			}
		case 3:
			m.Write8(addr(), byte(rng.Intn(255)+1))
		case 4:
			a := addr()
			if rng.Intn(2) == 0 {
				a = a&^PageMask + PageSize - uint32(1+rng.Intn(3)) // crosses into the next page
			}
			m.Write32(a, rng.Uint32()|1)
		case 5:
			n := rng.Intn(len(junk))
			m.WriteBytes(addr(), junk[:n])
		case 6:
			a, size := slot()
			if m.CheckRange(a, size, 0) {
				if err := m.LoadRaw(a, junk[:size/2]); err != nil {
					t.Fatal(err)
				}
			}
		case 7:
			m.PokeWord(addr(), rng.Uint32()|1)
		case 8:
			a, size := slot()
			if m.CheckRange(a, size, 0) {
				if err := m.Protect(a, size, scrubPerms[rng.Intn(len(scrubPerms))]); err != nil {
					t.Fatal(err)
				}
			}
		case 9:
			cp = m.Checkpoint()
		case 10:
			if cp != nil {
				if err := m.Restore(cp); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Unmap a checkpoint page, write the bytes the remapped slot will
	// get, and restore: the page comes back through the whole-page
	// recreate, and — remapped first — through the full-span rollback.
	for _, remap := range []bool{false, true} {
		var a uint32
		for _, s := range scrubSlots {
			for p := s.addr; p < s.addr+s.pages*PageSize && a == 0; p += PageSize {
				if m.Mapped(p) {
					a = p
				}
			}
		}
		if a == 0 {
			mustMap(t, m, scrubSlots[0].addr, PageSize, RW)
			a = scrubSlots[0].addr
		}
		m.PokeWord(a, 0xfeedface)
		cp = m.Checkpoint()
		if err := m.Unmap(a, PageSize); err != nil {
			t.Fatal(err)
		}
		if remap {
			mustMap(t, m, a, PageSize, RW)
		}
		if err := m.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if m.PeekWord(a) != 0xfeedface {
			t.Fatalf("restore did not bring back the unmapped page at 0x%08x", a)
		}
	}
	if rng.Intn(2) == 0 {
		cp = m.Checkpoint()
		m.PokeWord(addr(), 0x12345678)
	}
}

// checkNew checks that m, recycled by New, is in the state of a new
// Memory apart from its free page and table lists.
func checkNew(t *testing.T, m *Memory) {
	t.Helper()
	got := *m
	got.free, got.tables = nil, nil
	if !reflect.DeepEqual(got, Memory{}) {
		t.Fatalf("recycled Memory differs from a new one: npages %d snapSeq %d lastPage %v snap %v",
			got.npages, got.snapSeq, got.lastPage, got.snap)
	}
	for _, tab := range m.tables {
		if *tab != (l2table{}) {
			t.Fatal("a released table is not empty")
		}
	}
}

// TestScrubProperty dirties address spaces through every content path,
// releases them, then maps ranges both overlapping and disjoint from the
// old mappings in the recycled Memory. Whatever recycled page or table a
// mapping draws, every byte reads zero, every page has seq 0, and npages
// and Regions are those of a new Memory with the same mappings.
func TestScrubProperty(t *testing.T) {
	fresh := func(maps [][3]uint32) *Memory {
		f := &Memory{}
		for _, mp := range maps {
			mustMap(t, f, mp[0], mp[1], Perm(mp[2]))
		}
		return f
	}
	reused := 0
	for iter := 0; iter < 200; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		m := &Memory{}
		dirtyRandomly(t, rng, m)
		old := map[*page]bool{}
		for _, p := range m.free {
			old[p] = true
		}
		m.eachPage(func(_ uint32, p *page) { old[p] = true })

		if iter%5 == 0 {
			// Through the pool, as processes do; the pool may drop m
			// (it does so on purpose under -race), then New is new.
			m.Release()
			m = New()
		} else {
			m.unmapAll()
			m.reset()
		}
		checkNew(t, m)

		// Overlapping: the slots the dirty sequence used. Disjoint: a
		// run in a table no dirty sequence touched.
		var maps [][3]uint32
		for _, s := range scrubSlots {
			maps = append(maps, [3]uint32{s.addr, s.pages * PageSize, uint32(scrubPerms[rng.Intn(len(scrubPerms))])})
		}
		maps = append(maps, [3]uint32{0x40000000, 3 * PageSize, uint32(RW)})
		rng.Shuffle(len(maps), func(i, j int) { maps[i], maps[j] = maps[j], maps[i] })
		for _, mp := range maps {
			mustMap(t, m, mp[0], mp[1], Perm(mp[2]))
		}
		want := fresh(maps)
		if m.npages != want.npages {
			t.Fatalf("iteration %d: npages %d, want %d", iter, m.npages, want.npages)
		}
		if got, w := m.Regions(), want.Regions(); !reflect.DeepEqual(got, w) {
			t.Fatalf("iteration %d: regions %v, want %v", iter, got, w)
		}
		zero := make([]byte, PageSize)
		m.eachPage(func(pn uint32, p *page) {
			if old[p] {
				reused++
			}
			if p.seq != 0 {
				t.Fatalf("iteration %d: page 0x%05x has seq %d", iter, pn, p.seq)
			}
			if !bytes.Equal(p.data[:], zero) {
				t.Fatalf("iteration %d: page 0x%05x is not all zero", iter, pn)
			}
		})
		for _, mp := range maps {
			if b, ok := m.PeekRaw(mp[0], int(mp[1])); !ok || !bytes.Equal(b, make([]byte, mp[1])) {
				t.Fatal(fmt.Sprintf("iteration %d: mapping at 0x%08x does not read zero", iter, mp[0]))
			}
		}
	}
	if reused == 0 {
		t.Fatal("no released page was reused, so nothing was checked")
	}
}
