package trace

import (
	"fmt"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

func TestCollectLogsCoverAllAccesses(t *testing.T) {
	g := gen.ErdosRenyi(400, 2500, 7)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 4)
	if TotalAccesses(logs) != CountAccesses(g) {
		t.Fatalf("logs hold %d accesses, want %d", TotalAccesses(logs), CountAccesses(g))
	}
	// Threads must be distinct and ordered.
	for i, lg := range logs {
		if lg.Thread != i {
			t.Errorf("log %d labeled thread %d", i, lg.Thread)
		}
	}
}

// replayAll flattens Replay's blocks into records.
func replayAll(logs []ThreadLog, interval int) []Access {
	var out []Access
	Replay(logs, interval, func(b *Block) {
		for i := range b.Addrs {
			out = append(out, b.Access(i))
		}
	})
	return out
}

func TestReplayEqualsRunParallel(t *testing.T) {
	// The paper's materialized two-phase method and the streaming
	// interleaver must produce the identical access sequence.
	g := gen.WebGraph(gen.DefaultWebGraph(1024, 6, 3))
	l := NewLayout(g)
	const threads, interval = 3, 17

	var streamed []Access
	runThreads(g, l, Pull, threads, interval, func(a Access) {
		streamed = append(streamed, a)
	})

	logs := CollectLogs(g, l, Pull, threads)
	replayed := replayAll(logs, interval)

	if len(streamed) != len(replayed) {
		t.Fatalf("lengths differ: %d vs %d", len(streamed), len(replayed))
	}
	for i := range streamed {
		if streamed[i] != replayed[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, streamed[i], replayed[i])
		}
	}
}

func TestReplayDegenerateInterval(t *testing.T) {
	g := gen.Ring(50)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Push, 2)
	if n := uint64(len(replayAll(logs, 0))); n != CountAccesses(g) {
		t.Errorf("replayed %d accesses, want %d", n, CountAccesses(g))
	}
}

func TestReplayWithThread(t *testing.T) {
	for _, tc := range []struct {
		g         *graph.Graph
		intervals []int
	}{
		{gen.WebGraph(gen.DefaultWebGraph(512, 6, 5)), []int{0, 16}},
		{testGraph(), []int{1, 100, 1 << 20}},
	} {
		l := NewLayout(tc.g)
		logs := CollectLogs(tc.g, l, Pull, 3)
		for _, interval := range tc.intervals {
			// Every block is one slice of one thread's log: at most
			// interval accesses, taken in order from the log of the next
			// live thread in round-robin turn. The blocks concatenate to
			// the interleaved stream.
			want := collectRun(tc.g, withThreads(Whole(tc.g, Pull), 3, interval))
			var got []Access
			pos := map[int]int{}
			thread := -1
			Replay(logs, interval, func(b *Block) {
				for thread = (thread + 1) % len(logs); pos[thread] == len(logs[thread].Accesses); {
					thread = (thread + 1) % len(logs)
				}
				if n := len(b.Addrs); n == 0 || n > max(interval, 1) {
					t.Fatalf("iv=%d: block of %d accesses", interval, n)
				}
				edgeReads := 0
				for i := range b.Addrs {
					a := b.Access(i)
					if a != logs[thread].Accesses[pos[thread]] {
						t.Fatalf("iv=%d: thread %d access %d = %+v, want %+v", interval, thread, pos[thread], a, logs[thread].Accesses[pos[thread]])
					}
					if a.Kind == KindEdges {
						edgeReads++
					}
					pos[thread]++
					got = append(got, a)
				}
				if b.EdgeReads != edgeReads {
					t.Fatalf("iv=%d: block EdgeReads %d, want %d", interval, b.EdgeReads, edgeReads)
				}
			})
			assertSameStream(t, fmt.Sprintf("iv=%d", interval), want, got)
			for i, lg := range logs {
				if pos[i] != len(lg.Accesses) {
					t.Errorf("iv=%d: thread %d delivered %d accesses, want %d", interval, i, pos[i], len(lg.Accesses))
				}
			}
		}
	}
}

func TestCollectLogsPushDirection(t *testing.T) {
	g := gen.Star(100)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Push, 0) // degenerate thread count
	if len(logs) == 0 || TotalAccesses(logs) != CountAccesses(g) {
		t.Fatal("push logs wrong")
	}
}
