package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// The benchmark's own op generator. Every stream is a pure function of
// (workload, seed, client) over a FIXED key set: an "insert" is a put of a
// key that is currently deleted, so chain lengths — and therefore the cost
// of an op — do not drift while a phase runs. internal/workload's Generate
// inserts 5 % fresh keys; on the 64-bucket fleet KV that made the same
// code slow from 120 k to 42 k ops/s across one run, which is why no timed
// phase here uses it.

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
)

func (k opKind) String() string { return [...]string{"get", "put", "del"}[k] }

// op is one generated request. val is meaningful for puts only; idx is the
// key's position in its stream's key set, so checking a result against the
// model is an array access.
type op struct {
	kind opKind
	key  int64
	val  int64
	idx  int
}

// rng is splitmix64: tiny, seedable, and good enough that adjacent seeds
// give unrelated streams.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamSeed folds the stream's identity into one seed, so two workloads
// (or two clients of one) never share a sequence.
func streamSeed(workload string, seed uint64, client int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	r := rng{s: h.Sum64() ^ seed*0x9e3779b97f4a7c15 ^ uint64(client+1)<<56}
	return r.next()
}

// mix is the request mix of a stream, in percent; the remainder after
// gets and deletes is puts.
type mix struct {
	getPct int
	delPct int
	// zipfTheta > 0 draws keys with zipfian popularity instead of uniformly.
	zipfTheta float64
}

// absent is what the KV's get returns for a missing key, and what the model
// stores for one.
const absent = int64(-1)

// stream generates one client's ops and keeps that client's model: the
// value every key it owns must currently hold. Clients own disjoint key
// partitions, so each model is exact without any cross-client ordering.
type stream struct {
	r    rng
	mix  mix
	keys []int64
	cdf  []float64 // zipfian CDF over keys, nil for uniform
	// model[i] is the value keys[i] must hold (absent when deleted).
	model []int64
}

func newStream(workload string, seed uint64, client int, keys []int64, m mix) *stream {
	s := &stream{
		r:     rng{s: streamSeed(workload, seed, client)},
		mix:   m,
		keys:  keys,
		model: make([]int64, len(keys)),
	}
	for i := range keys {
		s.model[i] = absent
	}
	if m.zipfTheta > 0 {
		s.cdf = make([]float64, len(keys))
		sum := 0.0
		for i := range keys {
			sum += 1 / math.Pow(float64(i+1), m.zipfTheta)
		}
		acc := 0.0
		for i := range keys {
			acc += 1 / math.Pow(float64(i+1), m.zipfTheta) / sum
			s.cdf[i] = acc
		}
	}
	return s
}

func (s *stream) pick() int {
	if s.cdf == nil {
		return s.r.intn(len(s.keys))
	}
	i := sort.SearchFloat64s(s.cdf, s.r.float())
	if i >= len(s.keys) {
		i = len(s.keys) - 1
	}
	return i
}

// next draws the following op. Values are non-negative so they can never
// collide with the absent marker.
func (s *stream) next() op {
	i := s.pick()
	roll := s.r.intn(100)
	switch {
	case roll < s.mix.getPct:
		return op{kind: opGet, key: s.keys[i], idx: i}
	case roll < s.mix.getPct+s.mix.delPct:
		return op{kind: opDel, key: s.keys[i], idx: i}
	default:
		return op{kind: opPut, key: s.keys[i], idx: i, val: int64(s.r.next() >> 2)}
	}
}

// preload returns one put per owned key, in key order: the state every
// measured phase starts from.
func (s *stream) preload() []op {
	ops := make([]op, len(s.keys))
	for i, k := range s.keys {
		ops[i] = op{kind: opPut, key: k, idx: i, val: int64(s.r.next() >> 2)}
	}
	return ops
}

// check compares a result against the model and then applies the op to it.
// It reports whether the result was what the model requires.
func (s *stream) check(o op, got int64) bool {
	want := s.model[o.idx]
	switch o.kind {
	case opGet:
		return got == want
	case opPut:
		s.model[o.idx] = o.val
		return true
	default: // del reports whether the key existed
		s.model[o.idx] = absent
		if want == absent {
			return got == 0
		}
		return got == 1
	}
}

// live counts the keys the model holds a value for.
func (s *stream) live() int {
	n := 0
	for _, v := range s.model {
		if v != absent {
			n++
		}
	}
	return n
}

// keyRange returns the fixed key set 1..n.
func keyRange(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i + 1)
	}
	return keys
}

// partition splits keys into per-client disjoint sets by owner(key).
func partition(keys []int64, clients int, owner func(int64) int) [][]int64 {
	parts := make([][]int64, clients)
	for _, k := range keys {
		c := owner(k)
		parts[c] = append(parts[c], k)
	}
	return parts
}
