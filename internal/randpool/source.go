package randpool

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (length
// rngLen, tap rngTap) with its state filled on demand. math/rand's
// Seed runs 1,841 steps of the LCG x' = 48271·x mod (2³¹−1) to fill
// all 607 words before the first draw, yet a short session draws a
// handful of numbers or none at all. Here Seed only records the
// normalised seed, and each word is computed by jump-ahead just before
// the generator first touches it, so the stream is bit-identical to
// rand.NewSource's.
//
// Draw k (counting from 1) reads vec[feed] and vec[tap], with
// feed = 334−k and tap = 607−k until each wraps. On draws 1–334 the
// feed pointer meets words 333…0 for the first time. On draws 1–273
// the tap pointer meets words 606…334 for the first time; on draws
// 274–334 it reads words 333…273, which feed filled on draws 1–61.
// Filling vec[feed] on draws 1–334 and vec[tap] on draws 1–273
// therefore fills every word just before its first read or write, and
// after draw 334 the state is math/rand's own.
type source struct {
	tap    int // index into vec
	feed   int // index into vec
	filled int // draws made while words were still being filled
	seed   uint64
	vec    [rngLen]int64
}

var _ rand.Source64 = (*source)(nil)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

// jump[i] is lcgMul^(21+3i) mod int32max: math/rand's Seed discards 20
// LCG states and then spends three on each word, so word i starts from
// state x₂₁₊₃ᵢ = seed·jump[i].
var jump [rngLen]uint64

func init() {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = mulMod(p, lcgMul)
	}
	for i := range jump {
		jump[i] = p
		p = mulMod(mulMod(mulMod(p, lcgMul), lcgMul), lcgMul)
	}
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹, folding the Mersenne
// modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed normalises seed as math/rand does and rewinds the generator.
// It computes no state: the words are filled as the draws reach them.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.filled = 0

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
}

// word returns math/rand's seeded value of vec[i].
func (s *source) word(i int) int64 {
	x1 := mulMod(s.seed, jump[i])
	x2 := mulMod(x1, lcgMul)
	x3 := mulMod(x2, lcgMul)
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	if s.filled < rngLen-rngTap {
		s.filled++
		s.vec[s.feed] = s.word(s.feed)
		if s.filled <= rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
