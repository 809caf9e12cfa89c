package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// dumpSpace renders the complete logical content of an address space:
// every mapped region with its permissions and bytes. Two spaces with
// equal dumps are indistinguishable to any program.
func dumpSpace(t *testing.T, m *Memory) string {
	t.Helper()
	var b bytes.Buffer
	for _, r := range m.Regions() {
		data, ok := m.PeekRaw(r.Addr, int(r.Size))
		if !ok {
			t.Fatalf("region [%#x,+%#x) not fully readable", r.Addr, r.Size)
		}
		fmt.Fprintf(&b, "%08x+%x %s %x\n", r.Addr, r.Size, r.Perm, data)
	}
	return b.String()
}

// mutateRandomly applies a batch of random mutations drawn from every
// mutation path the Memory has: permission-checked writes, raw pokes and
// loads, Protect, Unmap, and Map of fresh pages.
func mutateRandomly(t *testing.T, m *Memory, rng *rand.Rand, base uint32) {
	t.Helper()
	for i := 0; i < 60; i++ {
		addr := base + uint32(rng.Intn(16*PageSize))
		switch rng.Intn(8) {
		case 0:
			m.Write8(addr, byte(rng.Intn(256))) // may fault: fine
		case 1:
			m.Write32(addr, rng.Uint32())
		case 2:
			m.PokeWord(addr, rng.Uint32())
		case 3:
			buf := make([]byte, 1+rng.Intn(2*PageSize))
			rng.Read(buf)
			m.WriteBytes(addr, buf)
		case 4:
			m.LoadRaw(addr&^uint32(PageMask), []byte{1, 2, 3, 4})
		case 5:
			pg := addr &^ uint32(PageMask)
			m.Protect(pg, PageSize, Perm(1+rng.Intn(7)))
		case 6:
			pg := addr &^ uint32(PageMask)
			m.Unmap(pg, PageSize)
		case 7:
			pg := addr &^ uint32(PageMask)
			m.Map(pg, PageSize, RW) // fails on overlap: fine
		}
	}
}

// TestCheckpointRestoreProperty is the snapshot/restore property test:
// checkpoint, run an arbitrary mutation storm (including mapping and
// permission changes), restore — the space must be byte-identical to the
// checkpoint, over many independent seeds and repeated mutate/restore
// rounds against the same checkpoint.
func TestCheckpointRestoreProperty(t *testing.T) {
	const base = uint32(0x00400000)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		// Random initial landscape: a handful of mapped runs with mixed
		// permissions and random content.
		for pn := 0; pn < 16; pn++ {
			if rng.Intn(3) == 0 {
				continue // leave a hole
			}
			pg := base + uint32(pn)*PageSize
			if err := m.Map(pg, PageSize, Perm(1+rng.Intn(7))); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, PageSize)
			rng.Read(buf)
			if err := m.LoadRaw(pg, buf); err != nil {
				t.Fatal(err)
			}
		}
		cp := m.Checkpoint()
		want := dumpSpace(t, m)
		wantRegions := m.Regions()

		for round := 0; round < 4; round++ {
			mutateRandomly(t, m, rng, base)
			if err := m.Restore(cp); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if got := dumpSpace(t, m); got != want {
				t.Fatalf("seed %d round %d: space differs after restore", seed, round)
			}
			if got := m.Regions(); !reflect.DeepEqual(got, wantRegions) {
				t.Fatalf("seed %d round %d: regions differ: %v vs %v", seed, round, got, wantRegions)
			}
		}
	}
}

// TestRestoreGenBehaviour pins the decode-cache contract across
// divergent runs: structural events (Protect here) and the restore that
// undoes them invalidate through the touched pages' write stamps only —
// one divergent run must not condemn the rest of the campaign to cold
// caches, and pages the divergence never touched keep their stamps
// through the whole cycle.
func TestRestoreGenBehaviour(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, 2*PageSize, RW); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()

	// A data-only round first, so the divergent round below starts from
	// a page already rolled back once.
	if err := m.Write32(0x1004, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}

	// A divergent round: Protect flips a page's permissions mid-run. The
	// page's stamp must move at the Protect AND at the restore that rolls
	// the permissions back (decodes minted under either permission state
	// must not survive into the other), while the untouched neighbour
	// page keeps its stamp through the whole cycle.
	_, w0 := m.CodeStamp(0x1000)
	_, n0 := m.CodeStamp(0x2000)
	if err := m.Protect(0x1000, PageSize, RX); err != nil {
		t.Fatal(err)
	}
	_, wMut := m.CodeStamp(0x1000)
	if wMut == w0 {
		t.Fatal("Protect did not move the page's write stamp")
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, w := m.CodeStamp(0x1000); w == wMut || w == w0 {
		t.Fatalf("restore after Protect must move the touched page's stamp past every value seen: got %d (had %d, %d)", w, w0, wMut)
	}
	if m.PermAt(0x1000) != RW {
		t.Fatalf("perm not restored: %v", m.PermAt(0x1000))
	}
	if _, n := m.CodeStamp(0x2000); n != n0 {
		t.Fatal("untouched page lost its stamp across a divergent round (cache needlessly cold)")
	}
}

// TestCheckpointUnmapRemapCycle exercises the trickiest log case: a page
// unmapped and re-mapped (with different permissions and content) inside
// one checkpoint epoch must restore to its original identity.
func TestCheckpointUnmapRemapCycle(t *testing.T) {
	m := New()
	if err := m.Map(0x2000, PageSize, RX); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadRaw(0x2000, []byte("original")); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()

	if err := m.Unmap(0x2000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x2000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadRaw(0x2000, []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	// And a brand-new page that must disappear again.
	if err := m.Map(0x5000, PageSize, RWX); err != nil {
		t.Fatal(err)
	}

	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if m.PermAt(0x2000) != RX {
		t.Fatalf("perm = %v, want r-x", m.PermAt(0x2000))
	}
	b, ok := m.PeekRaw(0x2000, 8)
	if !ok || string(b) != "original" {
		t.Fatalf("content = %q, want original", b)
	}
	if m.Mapped(0x5000) {
		t.Fatalf("page created after checkpoint survived restore")
	}
}

func TestRestoreRequiresActiveCheckpoint(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	cp2 := m.Checkpoint()
	if err := m.Restore(cp); err == nil {
		t.Fatal("restore of a superseded checkpoint succeeded")
	}
	if err := m.Restore(cp2); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreBumpsWriteStamps pins the per-page half of the restore
// invalidation contract: a page whose content the rollback rewrites gets
// a fresh write stamp (decodes cached against the mutated bytes must not
// survive), while a page never written since the checkpoint keeps its
// stamp — the warm-cache fast path, per page.
func TestRestoreBumpsWriteStamps(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, 2*PageSize, RWX); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	_, w1 := m.CodeStamp(0x1000)
	_, w2 := m.CodeStamp(0x2000)
	if err := m.Write8(0x1000, 0x90); err != nil { // dirties page 1 only
		t.Fatal(err)
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, w := m.CodeStamp(0x1000); w == w1 {
		t.Fatal("restored page kept its write stamp (stale decode could survive)")
	}
	if _, w := m.CodeStamp(0x2000); w != w2 {
		t.Fatal("untouched page lost its write stamp (cache needlessly cold)")
	}
}

// TestPretouchWrite: pretouching saves the page into the undo log (so a
// later restore still recovers checkpoint bytes) without changing any
// observable memory state, and is a no-op on unmapped addresses or
// without a checkpoint.
func TestPretouchWrite(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	m.PretouchWrite(0x1000) // no checkpoint: no-op
	cp := m.Checkpoint()
	m.PretouchWrite(0x9000) // unmapped: no-op
	m.PretouchWrite(0x1004)
	// The page is now saved: writes after the pretouch must still be
	// rolled back to checkpoint content.
	if err := m.Write32(0x1004, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Read32(0x1004); err != nil || v != 0 {
		t.Fatalf("restore after pretouch: got %#x err %v, want 0", v, err)
	}
	// Pretouching a page that is then never written is harmless.
	m.PretouchWrite(0x1000)
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x1004); v != 0 {
		t.Fatalf("idle pretouch corrupted restore: %#x", v)
	}
}
