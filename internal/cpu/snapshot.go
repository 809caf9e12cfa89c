package cpu

import "softsec/internal/isa"

// ArchState is a checkpoint of the CPU's architectural state: everything
// a program's execution can observe or modify, but none of the
// micro-architecture. The decoded-instruction cache is deliberately not
// part of it — cache validity is governed by the memory's page write
// stamps, so a restore whose address space is byte-identical to the
// checkpoint keeps the cache warm for free (see mem.Checkpoint).
//
// Process snapshot/restore (internal/kernel) pairs an ArchState with a
// memory checkpoint to reset a loaded process in microseconds instead of
// re-linking and re-loading it, which is what makes
// thousands-of-executions-per-second fuzzing campaigns feasible.
type ArchState struct {
	Reg   [isa.NumRegs]uint32
	IP    uint32
	F     Flags
	Steps uint64

	state    State
	exitCode int32
	fault    *Fault
	shadow   []uint32
}

// SaveArch captures the architectural state.
func (c *CPU) SaveArch() ArchState {
	s := ArchState{
		Reg:      c.Reg,
		IP:       c.IP,
		F:        c.F,
		Steps:    c.Steps,
		state:    c.state,
		exitCode: c.exitCode,
		fault:    c.fault,
	}
	if len(c.shadow) > 0 {
		s.shadow = append([]uint32(nil), c.shadow...)
	}
	return s
}

// RestoreArch restores a state captured by SaveArch. Installed Policy,
// Coverage, Handler, Tracer and breakpoints are configuration, not
// architectural state: they stay as they are.
func (c *CPU) RestoreArch(s ArchState) {
	c.Reg = s.Reg
	c.IP = s.IP
	c.F = s.F
	c.Steps = s.Steps
	c.state = s.state
	c.exitCode = s.exitCode
	c.fault = s.fault
	c.skipBreak = false
	c.shadow = append(c.shadow[:0], s.shadow...)
}
