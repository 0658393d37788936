package cachesim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// streamGen is a tiny deterministic stream generator for the sharded
// differential tests: a mix of sequential runs (prefetch-friendly) and
// splitmix-scattered lines confined to a window that keeps every set
// contended.
func streamGen(n int, lineWindow uint64, seed uint64) ([]uint64, []bool) {
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < n; i++ {
		r := next()
		line := r % lineWindow
		if r&0x7 == 0 {
			// Short sequential run.
			for k := 0; k < 8 && i < n; k++ {
				addrs[i] = (line + uint64(k)) << 6
				writes[i] = r>>8&1 == 1
				i++
			}
			i--
			continue
		}
		addrs[i] = line << 6
		writes[i] = r>>9&1 == 1
	}
	return addrs, writes
}

// assertShardStates compares every shard of two Sharded caches field by
// field.
func assertShardStates(t *testing.T, name string, want, got *Sharded) {
	t.Helper()
	if want.Shards() != got.Shards() {
		t.Fatalf("%s: shard counts differ", name)
	}
	for i := 0; i < want.Shards(); i++ {
		assertSameState(t, fmt.Sprintf("%s/shard%d", name, i), want.Shard(i), got.Shard(i))
	}
}

// TestShardedMatchesSingle pins the exactness half of the sharding model:
// for the per-set policies (LRU, SRRIP), a Sharded cache at any shard count
// — with or without next-line prefetch — produces per-access results,
// merged statistics, valid-line counts and snapshot contents identical to
// the single Cache of the same global geometry.
func TestShardedMatchesSingle(t *testing.T) {
	cfg := Config{LineSize: 64, Sets: 64, Ways: 4}
	addrs, writes := streamGen(20000, 4096, 7)
	for _, pol := range []Policy{LRU, SRRIP} {
		for _, prefetch := range []bool{false, true} {
			for _, shards := range []int{1, 2, 8, 64} {
				c := cfg
				c.Policy = pol
				c.NextLinePrefetch = prefetch
				name := fmt.Sprintf("%s/prefetch=%v/shards=%d", pol, prefetch, shards)
				single := New(c)
				sharded := NewSharded(c, shards)
				for i, addr := range addrs {
					want := single.Access(addr, writes[i])
					got := sharded.Access(addr, writes[i])
					if want != got {
						t.Fatalf("%s: access %d (addr %#x): single hit=%v sharded hit=%v", name, i, addr, want, got)
					}
				}
				if single.Stats() != sharded.Stats() {
					t.Fatalf("%s: merged stats = %+v, want %+v", name, sharded.Stats(), single.Stats())
				}
				if single.ValidLines() != sharded.ValidLines() {
					t.Fatalf("%s: valid lines = %d, want %d", name, sharded.ValidLines(), single.ValidLines())
				}
				var wantLines, gotLines []uint64
				single.Snapshot(func(a uint64) { wantLines = append(wantLines, a) })
				sharded.Snapshot(func(a uint64) { gotLines = append(gotLines, a) })
				sort.Slice(wantLines, func(i, j int) bool { return wantLines[i] < wantLines[j] })
				sort.Slice(gotLines, func(i, j int) bool { return gotLines[i] < gotLines[j] })
				if !reflect.DeepEqual(wantLines, gotLines) {
					t.Fatalf("%s: snapshot contents diverge", name)
				}
				for _, addr := range addrs[:64] {
					if single.Contains(addr) != sharded.Contains(addr) {
						t.Fatalf("%s: Contains(%#x) diverges", name, addr)
					}
				}
			}
		}
	}
}

// TestShardedBatchMatchesScalar holds the three driving modes of one
// Sharded cache together across all four policies: per-access Access,
// AccessBatch at an awkward cut, and AccessBatchParallel must produce
// identical per-access hits and identical final state in every shard.
func TestShardedBatchMatchesScalar(t *testing.T) {
	cfg := Config{LineSize: 64, Sets: 32, Ways: 4}
	addrs, writes := streamGen(12000, 1024, 11)
	for _, pol := range []Policy{LRU, SRRIP, BRRIP, DRRIP} {
		for _, prefetch := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				c := cfg
				c.Policy = pol
				c.NextLinePrefetch = prefetch
				name := fmt.Sprintf("%s/prefetch=%v/shards=%d", pol, prefetch, shards)
				scalar := NewSharded(c, shards)
				batched := NewSharded(c, shards)
				parallel := NewSharded(c, shards)

				scalarHits := make([]bool, len(addrs))
				for i, addr := range addrs {
					scalarHits[i] = scalar.Access(addr, writes[i])
				}
				const cut = 977
				batchHits := make([]bool, len(addrs))
				parHits := make([]bool, len(addrs))
				for lo := 0; lo < len(addrs); lo += cut {
					hi := lo + cut
					if hi > len(addrs) {
						hi = len(addrs)
					}
					batched.AccessBatch(addrs[lo:hi], writes[lo:hi], batchHits[lo:hi])
					parallel.AccessBatchParallel(addrs[lo:hi], writes[lo:hi], parHits[lo:hi])
				}
				if !reflect.DeepEqual(scalarHits, batchHits) {
					t.Fatalf("%s: AccessBatch hits diverge from scalar", name)
				}
				if !reflect.DeepEqual(scalarHits, parHits) {
					t.Fatalf("%s: AccessBatchParallel hits diverge from scalar", name)
				}
				assertShardStates(t, name+"/batch", scalar, batched)
				assertShardStates(t, name+"/parallel", scalar, parallel)
			}
		}
	}
}

// TestShardedParallelDeterminism runs the parallel driver repeatedly for
// the globally-stateful policies (BRRIP, DRRIP — the NUMA-slice model) and
// requires identical stats and state every time: results may depend on the
// stream and geometry, never on goroutine scheduling.
func TestShardedParallelDeterminism(t *testing.T) {
	addrs, writes := streamGen(16000, 2048, 3)
	for _, pol := range []Policy{BRRIP, DRRIP} {
		cfg := Config{LineSize: 64, Sets: 64, Ways: 8, Policy: pol}
		ref := NewSharded(cfg, 8)
		ref.AccessBatchParallel(addrs, writes, nil)
		for rep := 0; rep < 3; rep++ {
			got := NewSharded(cfg, 8)
			got.AccessBatchParallel(addrs, writes, nil)
			if ref.Stats() != got.Stats() {
				t.Fatalf("%s rep %d: stats nondeterministic: %+v vs %+v", pol, rep, got.Stats(), ref.Stats())
			}
			assertShardStates(t, fmt.Sprintf("%s/rep%d", pol, rep), ref, got)
		}
	}
}

// TestNewShardedValidation pins the constructor contract.
func TestNewShardedValidation(t *testing.T) {
	cfg := Config{LineSize: 64, Sets: 16, Ways: 2}
	for _, bad := range []int{0, -1, 3, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(shards=%d): want panic", bad)
				}
			}()
			NewSharded(cfg, bad)
		}()
	}
	if got := NewSharded(cfg, 16).Shards(); got != 16 {
		t.Errorf("shards = %d, want 16", got)
	}
}

// TestShardedReset verifies Reset returns every shard to the fresh state.
func TestShardedReset(t *testing.T) {
	cfg := Config{LineSize: 64, Sets: 16, Ways: 2, Policy: DRRIP}
	s := NewSharded(cfg, 4)
	addrs, writes := streamGen(4000, 512, 5)
	s.AccessBatch(addrs, writes, nil)
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Fatalf("stats after reset: %+v", s.Stats())
	}
	if s.ValidLines() != 0 {
		t.Fatalf("valid lines after reset: %d", s.ValidLines())
	}
}
