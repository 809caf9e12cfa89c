package kernel

import (
	"math"
	"math/rand"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/layout"
)

// seedCorpus returns at least n seeds: the edge cases of math/rand's
// seed normalization (zero, negatives, ±multiples of 2^31−1 — which
// normalize to zero and take the 89482311 substitute — the substitute
// itself, and the int64 extremes), then small consecutive seeds, then
// pseudorandom int64s of both signs.
func seedCorpus(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		int32max - 1, int32max + 1, -(int32max - 1), -(int32max + 1),
		1 << 31, -(1 << 31), 1 << 32, 1 << 62, -(1 << 62),
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MaxInt32, math.MinInt32,
	}
	for k := int64(1); k <= 8; k++ {
		seeds = append(seeds, k*int32max, -k*int32max, k*int32max+89482311)
	}
	seeds = append(seeds, math.MaxInt64/int32max*int32max, math.MinInt64/int32max*int32max)
	for s := int64(3); s < 2000; s++ {
		seeds = append(seeds, s, -s)
	}
	gen := rand.New(rand.NewSource(20240613))
	for len(seeds) < n {
		v := gen.Int63()
		if len(seeds)%2 == 1 {
			v = -v
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// TestSeedSourceMatchesMathRand pins the lazily seeded source to
// math/rand's stream bit for bit: the loader's ASLR layouts and seeded
// canaries — and with them every recorded sweep digest — must not move.
// 1,300 draws per seed run past both the 273-draw tap wrap and the
// 607-word register wrap, so words are read fresh, after a feed
// write-back, and after a full cycle.
func TestSeedSourceMatchesMathRand(t *testing.T) {
	seeds := seedCorpus(10000)
	t.Run("stream", func(t *testing.T) { testStream(t, seeds) })
	t.Run("Int31n", func(t *testing.T) { testInt31n(t, seeds[:2000]) })
	t.Run("CanaryValue", func(t *testing.T) { testCanaryValue(t, seeds) })
	t.Run("layout", func(t *testing.T) { testLayout(t, seeds[:600]) })
}

func testStream(t *testing.T, seeds []int64) {
	const draws = 1300
	var lz lazySource
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		lz.Seed(seed) // reseeding one value also exercises Seed's reset
		for i := 0; i < draws; i++ {
			if i%3 == 0 {
				if got, want := lz.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, got, want)
				}
				continue
			}
			if got, want := lz.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
}

// testInt31n draws through the pooled rand.Rand that Load uses,
// including bounds that are not powers of two and reject about half
// their draws.
func testInt31n(t *testing.T, seeds []int64) {
	bounds := []int32{1, 2, 3, 7, 0x100, 0x400, 0x800, 0x2000, 1000003, 1<<30 + 1}
	// One pooled generator, reseeded per seed as Load does, so every seed
	// after the first also checks that Seed clears the previous draws.
	r := aslrPool.Get().(*aslrRand)
	defer aslrPool.Put(r)
	for _, seed := range seeds {
		r.rng.Seed(seed)
		got, want := r.rng, rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			n := bounds[i%len(bounds)]
			if g, w := got.Int31n(n), want.Int31n(n); g != w {
				t.Fatalf("seed %d draw %d: Int31n(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}

func testCanaryValue(t *testing.T, seeds []int64) {
	for _, seed := range seeds {
		want := DefaultCanary
		if seed != 0 {
			want = uint32(rand.New(rand.NewSource(seed)).Int63()) | 1
		}
		if got := CanaryValue(seed); got != want {
			t.Fatalf("CanaryValue(%d) = %#x, math/rand gives %#x", seed, got, want)
		}
	}
}

// testLayout loads with ASLR on under every layout profile and compares
// the accepted layout with the loader's draw loop replayed on a
// rand.NewSource generator: the lazy source must pick the same bases,
// including for seeds whose first draw collides and is redrawn.
func testLayout(t *testing.T, seeds []int64) {
	ld, err := Link(Libc(), asm.MustAssemble("echo", echoExitSrc))
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range layout.Profiles() {
		redrawn := 0
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			want := RandomizedLayoutFor(rng, prof)
			for i := 0; i < 64 && !layoutFits(want, ld); i++ {
				want = RandomizedLayoutFor(rng, prof)
				if i == 0 {
					redrawn++
				}
			}
			p, err := Load(ld, Config{DEP: true, ASLR: true, ASLRSeed: seed, Profile: prof})
			if err != nil {
				t.Fatalf("%s seed %d: %v", prof.Name, seed, err)
			}
			if p.Layout != want {
				t.Fatalf("%s seed %d: layout %+v, math/rand gives %+v", prof.Name, seed, p.Layout, want)
			}
		}
		if redrawn == 0 {
			t.Errorf("%s: no seed exercised the redraw loop", prof.Name)
		}
	}
}
