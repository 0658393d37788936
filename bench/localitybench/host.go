package main

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"time"
)

// peakRSSMB returns the process's peak resident set size in MiB from
// getrusage (ru_maxrss is in KiB on Linux).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// The reference kernel simulates refAccesses accesses of a refSets-set,
// refWays-way LRU cache with 64-byte lines over a fixed address stream in
// a 2 MiB array: even accesses walk its first MiB in 8-byte steps, odd
// ones fall anywhere in it at random with a skew toward its start, as a
// graph's edge and vertex accesses do.
const (
	refSets     = 1024
	refWays     = 16
	refAccesses = 1 << 18
	refSpan     = 2 << 20
)

// refNominal is the reference kernel's time on an idle core of the host
// the benchmark was calibrated on. A reference second is 1 s / refNominal
// refs; setup_s, which must be in seconds, is in reference seconds.
const refNominal = 20 * time.Millisecond

// refKernel is the host speed reference. Its work is fixed and shares no
// code with the program, so its time moves only when the host's speed
// does; the benchmark times each window of ops against a run of it made
// right after. Its stream and cache are allocated once.
type refKernel struct {
	stream []uint64
	tags   []uint64
	age    []uint32
}

// refSink keeps the kernel's hit count live, so the compiler cannot drop
// the simulation.
var refSink atomic.Int64

func newRefKernel() *refKernel {
	k := &refKernel{stream: make([]uint64, refAccesses), tags: make([]uint64, refSets*refWays), age: make([]uint32, refSets*refWays)}
	x := uint64(0x9e3779b97f4a7c15) // xorshift64 state
	for i := range k.stream {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i%2 == 0 {
			k.stream[i] = uint64(i/2*8) % refSpan
		} else {
			r := x % refSpan
			k.stream[i] = r * r / refSpan
		}
	}
	return k
}

// run simulates the stream from a cold cache and returns how long it took.
func (k *refKernel) run() time.Duration {
	clear(k.tags)
	clear(k.age)
	start := time.Now()
	hits, clock := 0, uint32(0)
	for _, addr := range k.stream {
		tag := addr>>6 + 1 // 0 marks an empty way
		base := int(tag%refSets) * refWays
		clock++
		victim, oldest, hit := base, k.age[base], false
		for i := base; i < base+refWays; i++ {
			if k.tags[i] == tag {
				k.age[i], hit = clock, true
				break
			}
			if k.age[i] < oldest {
				victim, oldest = i, k.age[i]
			}
		}
		if hit {
			hits++
			continue
		}
		k.tags[victim], k.age[victim] = tag, clock
	}
	d := time.Since(start)
	refSink.Add(int64(hits))
	return d
}
