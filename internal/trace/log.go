package trace

import (
	"sync"

	"graphlocality/internal/graph"
)

// This file implements the paper's two-phase parallel simulation (§V-B)
// literally: phase 1 materializes each thread's memory accesses into a
// log; phase 2 divides execution into intervals and replays the logs
// round-robin. Generate and Run produce the identical interleaving without
// materializing the logs; the explicit form exists for tooling that needs
// to store, inspect or re-replay traces.

// ThreadLog is the materialized access log of one emulated thread.
type ThreadLog struct {
	Thread   int
	Accesses []Access
}

// CollectLogs performs phase 1: it partitions the vertex set into
// `threads` edge-balanced partitions and records each partition's full
// program-order access stream.
func CollectLogs(g graph.Topology, l Layout, dir Direction, threads int) []ThreadLog {
	ranges := g.PartitionEdgeBalanced(dir == Pull, max(threads, 1))
	logs := make([]ThreadLog, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r graph.Range) {
			defer wg.Done()
			logs[i].Thread = i
			Generate(g, l, Stream{Dir: dir, Range: r}, 0, true, func(b *Block) bool {
				for j := range b.Addrs {
					logs[i].Accesses = append(logs[i].Accesses, b.Access(j))
				}
				return true
			})
		}(i, r)
	}
	wg.Wait()
	return logs
}

// Replay performs phase 2: execution duration is divided between threads;
// for each interval every live thread contributes `interval` accesses in
// round-robin order. Each slice reaches sink as one block, with the record
// columns filled. Concatenating the blocks gives the stream Generate and
// Run emit for the same threads and interval. The block is reused once
// sink returns.
func Replay(logs []ThreadLog, interval int, sink func(b *Block)) {
	pos := make([]int, len(logs))
	var buf *Block
	var view Block
	interleave(len(logs), interval, func(i, quota int) (bool, bool) {
		lg := logs[i].Accesses
		k := min(quota, len(lg)-pos[i])
		if buf == nil || len(buf.Addrs) < k {
			buf = NewBlock(k, true)
		}
		view = Block{Addrs: buf.Addrs[:k], Writes: buf.Writes[:k], Kinds: buf.Kinds[:k], Vertices: buf.Vertices[:k], Dests: buf.Dests[:k]}
		for j, a := range lg[pos[i] : pos[i]+k] {
			view.Addrs[j], view.Writes[j] = a.Addr, a.Write
			view.setRecord(j, a.Kind, a.Vertex, a.Dest)
			if a.Kind == KindEdges {
				view.EdgeReads++
			}
		}
		pos[i] += k
		if k > 0 {
			sink(&view)
		}
		return pos[i] < len(lg), true
	})
}

// TotalAccesses sums the log lengths.
func TotalAccesses(logs []ThreadLog) uint64 {
	var n uint64
	for _, l := range logs {
		n += uint64(len(l.Accesses))
	}
	return n
}
