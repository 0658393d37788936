package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/trace"
	"graphlocality/internal/vfs"
)

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	out := fs.String("out", "", "output trace file")
	threads := fs.Int("threads", 4, "emulated threads")
	dirName := fs.String("dir", "pull", "traversal direction: pull, push, pushread")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return usagef("-graph and -out are required")
	}
	dir, err := trace.ParseDirection(*dirName)
	if err != nil {
		return usagef("%v", err)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	logs := trace.CollectLogs(g, trace.NewLayout(g), dir, *threads)
	// Atomic write: an interrupted record never leaves a torn trace file.
	if err := vfs.WriteFileAtomic(nil, *out, func(w io.Writer) error {
		return trace.WriteLogs(logs, w)
	}); err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses across %d threads to %s\n",
		trace.TotalAccesses(logs), len(logs), *out)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("trace", "", "input trace file")
	policyName := fs.String("policy", "drrip", "replacement policy: lru, srrip, brrip, drrip")
	sets := fs.Int("sets", 64, "cache sets")
	ways := fs.Int("ways", 8, "cache ways")
	lineSize := fs.Int("line", 64, "line size in bytes")
	interval := fs.Int("interval", 1024, "round-robin interleave interval")
	prefetch := fs.Bool("prefetch", false, "enable next-line prefetcher")
	fs.Parse(args)
	if *in == "" {
		return usagef("-trace is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	logs, err := trace.ReadLogs(io.NewSectionReader(f, 0, fi.Size()))
	if err != nil {
		return fmt.Errorf("reading trace %s: %w", *in, err)
	}
	var policy cachesim.Policy
	switch *policyName {
	case "lru":
		policy = cachesim.LRU
	case "srrip":
		policy = cachesim.SRRIP
	case "brrip":
		policy = cachesim.BRRIP
	case "drrip":
		policy = cachesim.DRRIP
	default:
		return usagef("unknown policy %q", *policyName)
	}
	cfg := cachesim.Config{
		Name: "L3", LineSize: *lineSize, Sets: *sets, Ways: *ways,
		Policy: policy, NextLinePrefetch: *prefetch,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	c := cachesim.New(cfg)
	trace.Replay(logs, *interval, func(b *trace.Block) { c.AccessBatch(b.Addrs, b.Writes, nil) })
	st := c.Stats()
	fmt.Printf("%s %d sets x %d ways (%d KiB), prefetch=%v\n",
		policy, cfg.Sets, cfg.Ways, cfg.SizeBytes()/1024, *prefetch)
	fmt.Printf("accesses %d, misses %d (%.2f%%), prefetches %d, writebacks %d\n",
		st.Accesses, st.Misses, 100*st.MissRate(), st.Prefetches, st.Writebacks)
	return nil
}
