package cpu

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"softsec/internal/isa"
)

// TestCacheEntrySizes pins the cache entry layouts: each array epoch
// lives in the padding after tag, and an entry carries only its page
// write stamps for validity, so entries — and the arrays built from
// them — must not grow.
func TestCacheEntrySizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"dcEntry", unsafe.Sizeof(dcEntry{}), 56},
		{"bcEntry", unsafe.Sizeof(bcEntry{}), 104},
		{"tcEntry", unsafe.Sizeof(tcEntry{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// collidingLoop is a loop over text that loopProgram also occupies, with
// its head at loopProgram's loop head (textBase+10) but other bytes, so
// decode, block and trace tags left by loopProgram collide with its own.
func collidingLoop() []byte {
	body := build(
		isa.Instr{Op: isa.ADDI, Rd: isa.EAX, Imm: 7},
		isa.Instr{Op: isa.PUSH, Rd: isa.EAX},
		isa.Instr{Op: isa.POP, Rd: isa.EBX},
		isa.Instr{Op: isa.SUBI, Rd: isa.ECX, Imm: 1},
		isa.Instr{Op: isa.CMPI, Rd: isa.ECX, Imm: 0},
	)
	code := build(
		isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: 40},
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0},
	)
	code = append(code, body...)
	jnzSize := len(build(isa.Instr{Op: isa.JNZ}))
	code = isa.MustEncode(code, isa.Instr{Op: isa.JNZ, Imm: uint32(-(len(body) + jnzSize))})
	return isa.MustEncode(code, isa.Instr{Op: isa.HLT})
}

// cacheArrays are the three cache arrays of one CPU.
type cacheArrays struct {
	dc *codeArray[dcEntry]
	bc *codeArray[bcEntry]
	tc *codeArray[tcEntry]
}

func freshArrays() cacheArrays {
	return cacheArrays{newArray[dcEntry](dcacheSize), newArray[bcEntry](bcacheSize), newArray[tcEntry](tcacheSize)}
}

// handBack takes c's cache arrays as Release does, without the pool
// (which, under -race, drops items on purpose).
func handBack(c *CPU) cacheArrays {
	a := cacheArrays{c.dcache, c.bcache, c.tcache}
	c.ResetCaches()
	return a
}

// recycled moves every array to its next epoch, as a take from the pool
// does.
func (a cacheArrays) recycled() cacheArrays {
	return cacheArrays{a.dc.recycle(), a.bc.recycle(), a.tc.recycle()}
}

// cacheRun is everything a run exposes: architectural outcome, step
// count, coverage and the engine counters.
type cacheRun struct {
	State State
	Reg   [isa.NumRegs]uint32
	IP    uint32
	F     Flags
	Fault string
	Steps uint64
	Cov   *Coverage
	DS    DecodeStats
	BS    BlockStats
	TS    TraceStats
}

// runOn runs code on a new machine whose caches are the given arrays,
// installed as if taken at warm-up.
func runOn(t *testing.T, code []byte, a cacheArrays) (cacheRun, *CPU) {
	t.Helper()
	c := newMachine(t, code)
	c.dcache, c.bcache, c.tcache = a.dc, a.bc, a.tc
	c.cacheMem = c.Mem
	c.Coverage = &Coverage{}
	c.DecodeStats = &DecodeStats{}
	c.BlockStats = &BlockStats{}
	c.TraceStats = &TraceStats{}
	st := c.Run(100000)
	r := cacheRun{State: st, Reg: c.Reg, IP: c.IP, F: c.F, Steps: c.Steps, Cov: c.Coverage,
		DS: *c.DecodeStats, BS: *c.BlockStats, TS: *c.TraceStats}
	if f := c.Fault(); f != nil {
		r.Fault = f.Error()
	}
	return r, c
}

// TestRecycledArraysActEmpty runs loopProgram, hands its decode, block
// and trace arrays to a run of collidingLoop, and checks that the second
// run is exactly a run on never-used arrays. loopProgram's machine stays
// alive, so its entries' stamps still validate against their own pages:
// only the epoch check keeps them out. The second case winds an array
// filled at epoch 1 forward to the last epoch before the wrap, so its
// next take wraps to epoch 1 again: the take must clear it.
func TestRecycledArraysActEmpty(t *testing.T) {
	want, _ := runOn(t, collidingLoop(), freshArrays())
	if want.State != Halted || want.TS.Formed == 0 {
		t.Fatalf("reference run: state %v, %d traces formed", want.State, want.TS.Formed)
	}

	for _, wrap := range []bool{false, true} {
		first, a := runOn(t, loopProgram(), freshArrays())
		if first.State != Halted || first.TS.Formed == 0 || first.BS.Builds == 0 {
			t.Fatalf("first run: state %v, %d blocks built, %d traces formed",
				first.State, first.BS.Builds, first.TS.Formed)
		}
		arrays := handBack(a)
		if wrap {
			arrays.dc.epoch, arrays.bc.epoch, arrays.tc.epoch = math.MaxUint32, math.MaxUint32, math.MaxUint32
		}
		arrays = arrays.recycled()
		if wrap {
			if arrays.dc.epoch != 1 || arrays.bc.epoch != 1 || arrays.tc.epoch != 1 {
				t.Fatalf("wrapped epochs %d/%d/%d, want 1", arrays.dc.epoch, arrays.bc.epoch, arrays.tc.epoch)
			}
			for i := range arrays.dc.ents {
				if arrays.dc.ents[i] != (dcEntry{}) {
					t.Fatalf("decode entry %d survived the epoch wrap", i)
				}
			}
			for i := range arrays.bc.ents {
				if e := &arrays.bc.ents[i]; e.epoch != 0 || e.tag != 0 || e.blk.ins != nil {
					t.Fatalf("block entry %d survived the epoch wrap", i)
				}
			}
			for i := range arrays.tc.ents {
				if arrays.tc.ents[i] != (tcEntry{}) {
					t.Fatalf("trace entry %d survived the epoch wrap", i)
				}
			}
		}
		got, _ := runOn(t, collidingLoop(), arrays)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wrap=%v: run on recycled arrays\n%+v\nrun on fresh arrays\n%+v", wrap, got, want)
		}
	}
}
