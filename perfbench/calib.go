package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"maps"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: over minutes its speed for
// an interpreter-heavy program swings by a factor of up to two (other
// tenants on the same cores, and CPU time withheld from the VM), far more
// than a run can average out. The calibrated metrics divide that swing
// out. Between repetitions the benchmark times a fixed calibration
// kernel on the same number of workers, and multiplies each
// repetition's wall and CPU time by calRefS over the kernel's time
// around it. The results are in reference seconds: seconds of a host on
// which one calibration takes calRefS. The kernel is code of the
// benchmark, not of the program, so a change to the program moves a
// calibrated metric just as it moves the raw one.

// calRefS is the reference time of one calibration run: about what it
// takes on the 2-vCPU Xeon VM the benchmark was built on.
const calRefS = 0.050

// calEvery is how long after one calibration the next is due; it runs
// at the first boundary between rounds of repetitions after that.
const calEvery = 400 * time.Millisecond

// calSteps is the interpreter steps of one worker's kernel, and
// calLibRounds the rounds of its library half.
const (
	calSteps     = 3_500_000
	calLibRounds = 6
)

// calMemBits sizes each worker's kernel memory: 2^calMemBits words,
// 1 MiB, which the kernel's loads and stores cover evenly.
const (
	calMemBits  = 17
	calMemWords = 1 << calMemBits
)

// calSmooth is how many calibrations, the nearest in time, a sample's
// calibration is the median of: one calibration is a short measurement
// and noisy, the host's drift is slow.
const calSmooth = 5

// calSample is one calibration: the kernel's wall and process CPU
// seconds, and when it ran.
type calSample struct {
	at        time.Time
	wall, cpu float64
}

// calibrator runs the kernel. Each worker keeps its memory, mapped
// outside the Go heap so that it does not move the program's GC pacing,
// and released after every calibration so that it is not resident
// while the program runs.
type calibrator struct {
	maps [][]byte
	mem  [][]uint64
	sink []uint64
}

func newCalibrator(workers int) (*calibrator, error) {
	c := &calibrator{sink: make([]uint64, workers)}
	for range workers {
		b, err := syscall.Mmap(-1, 0, 8*calMemWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("calibration memory: %w", err)
		}
		c.maps = append(c.maps, b)
		c.mem = append(c.mem, unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calMemWords))
	}
	c.run() // untimed: the first run builds the library's caches
	return c, nil
}

// close unmaps the kernel's memory.
func (c *calibrator) close() {
	for _, b := range c.maps {
		_ = syscall.Munmap(b) // a mapping of our own; nothing to recover
	}
	c.maps, c.mem = nil, nil
}

// run times one calibration: after a forced GC, so that it does not pay
// for the program's garbage, the kernel on every worker at once, as the
// harness runs trials.
func (c *calibrator) run() calSample {
	runtime.GC()
	before := readCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range c.mem {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.sink[i] = calKernel(c.mem[i], uint64(i)+1)
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	cpu := readCPU() - before
	for _, b := range c.maps {
		_ = syscall.Madvise(b, syscall.MADV_DONTNEED) // cannot fail on a whole private mapping
	}
	return calSample{at: t0.Add(time.Duration(wall * float64(time.Second) / 2)), wall: wall, cpu: cpu}
}

// calInsn is one instruction of the kernel's bytecode.
type calInsn struct {
	op, a, b uint8
	imm      uint64
}

// calProg is the kernel's program: a 200-instruction loop of ALU work,
// loads and stores scattered over memory, and data-dependent skips,
// drawn once from a fixed LCG so that every build runs the same code.
var calProg = func() []calInsn {
	var p []calInsn
	x := uint32(12345)
	for range 200 {
		x = x*1103515245 + 12345
		p = append(p, calInsn{op: uint8(x>>16) % 8, a: uint8(x>>8) % 8, b: uint8(x>>20) % 8, imm: uint64(x>>4) & 0xffff})
	}
	return append(p, calInsn{op: 8})
}()

// calKernel is one worker's share of a calibration. It has two halves
// of about equal time, because the program is two kinds of code and the
// host's drift moves them differently. In long fuzz-campaign runs the
// interpreter half alone divided out the least of the drift; the library
// half alone and the two together did about equally well, and the sum
// is used because it covers both kinds of code.
func calKernel(mem []uint64, seed uint64) uint64 {
	return calInterp(mem, seed) + calLibrary(seed)
}

// calInterp interprets calProg for calSteps steps: a switch-dispatched
// interpreter over registers and memory, the shape of the simulator's
// own hot loop.
func calInterp(mem []uint64, seed uint64) uint64 {
	var r [8]uint64
	for i := range r {
		r[i] = seed + uint64(i)
	}
	// addr hashes a value and the step into a word index, so that loads
	// and stores cover the memory however the registers evolve.
	addr := func(v uint64, step int) uint64 {
		return (v + uint64(step)) * 0x9E3779B97F4A7C15 >> (64 - calMemBits)
	}
	for pc, step := 0, 0; step < calSteps; step++ {
		in := calProg[pc]
		pc++
		switch in.op {
		case 0:
			r[in.a] += r[in.b] + in.imm
		case 1:
			r[in.a] ^= r[in.b]<<3 | r[in.b]>>7
		case 2:
			r[in.a] += mem[addr(r[in.b]+in.imm, step)]
		case 3:
			mem[addr(r[in.a], step)] = r[in.b] + 1
		case 4:
			r[in.a] *= r[in.b] | 1
		case 5:
			if r[in.a]&1 == 1 && pc+2 < len(calProg) {
				pc += 2
			}
		case 6:
			r[in.a] = r[in.a]>>1 + in.imm
		case 7:
			r[in.a] -= r[in.b] + in.imm
		default:
			pc = 0
		}
	}
	return r[0] + r[1] + mem[7]
}

// calAt is the calibration in force at t: the median wall and CPU time
// of the calSmooth calibrations nearest to t. cals is in time order and
// not empty.
func calAt(cals []calSample, t time.Time) (wall, cpu float64) {
	// The nearest calSmooth form a window of consecutive calibrations;
	// slide it right while that brings it closer to t.
	lo := 0
	n := min(calSmooth, len(cals))
	dist := func(c calSample) time.Duration { return max(c.at.Sub(t), t.Sub(c.at)) }
	for lo+n < len(cals) && dist(cals[lo+n]) < dist(cals[lo]) {
		lo++
	}
	var walls, cpus []float64
	for _, c := range cals[lo : lo+n] {
		walls = append(walls, c.wall)
		cpus = append(cpus, c.cpu)
	}
	return median(walls), median(cpus)
}

// calRecord is what the library half encodes and decodes.
type calRecord struct {
	Name  string            `json:"name"`
	ID    int               `json:"id"`
	Tags  []string          `json:"tags"`
	Attrs map[string]string `json:"attrs"`
	Vals  []float64         `json:"vals"`
}

var calRe = regexp.MustCompile(`([a-z]+)-(\d+)@(x|y|z)`)

// calLibrary is the library half: the allocating, map-, string- and
// reflection-heavy code of the harness and the toolchain, made of
// standard-library calls whose code does not change with the program:
// JSON round trips, base64, hashing, regular expressions, maps and
// sorting over 200 records, calLibRounds times. Each round's garbage is
// small, so that a calibration does not raise the process's peak
// resident set.
func calLibrary(seed uint64) uint64 {
	var out uint64
	for range calLibRounds {
		recs := make([]calRecord, 200)
		for i := range recs {
			recs[i] = calRecord{
				Name:  fmt.Sprintf("rec-%d@%c", uint64(i)*seed, 'x'+i%3),
				ID:    i,
				Tags:  []string{"a", "bb", strings.Repeat("c", i%7)},
				Attrs: map[string]string{"k": strconv.Itoa(i), "j": "v"},
				Vals:  []float64{float64(i), 1.5, 2.25},
			}
		}
		b, err := json.Marshal(recs)
		if err != nil {
			panic(err) // a fixed value of plain types always encodes
		}
		var back []calRecord
		if err := json.Unmarshal(b, &back); err != nil {
			panic(err) // it decodes what it just encoded
		}
		h := sha256.Sum256([]byte(base64.StdEncoding.EncodeToString(b)))
		out += uint64(h[0]) + uint64(len(calRe.FindAllStringSubmatch(string(b), -1))) + uint64(len(bytes.Fields(b)))
		sums := map[string]int{}
		for _, r := range back {
			sums[r.Name] += r.ID
		}
		keys := slices.Sorted(maps.Keys(sums))
		out += uint64(len(keys))
	}
	return out
}
