package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"graphlocality/internal/store"
)

// cmdStore is the maintenance front end of the artifact store backing
// -cachedir: inspect what a cache directory holds (stat), verify every
// artifact's checksums and optionally quarantine damage (verify), and
// collect crash debris (gc).
func cmdStore(args []string) error {
	if len(args) < 1 {
		return usagef("store subcommand required: stat, verify, gc")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "stat":
		return cmdStoreStat(rest)
	case "verify":
		return cmdStoreVerify(rest)
	case "gc":
		return cmdStoreGC(rest)
	default:
		return usagef("unknown store subcommand %q (want stat, verify or gc)", sub)
	}
}

func openStoreDir(fs *flag.FlagSet, args []string) (*store.Store, error) {
	dir := fs.String("dir", "", "store directory (the experiment -cachedir)")
	fs.Parse(args)
	if *dir == "" {
		return nil, usagef("-dir is required")
	}
	if fi, err := os.Stat(*dir); err != nil {
		return nil, err
	} else if !fi.IsDir() {
		return nil, usagef("%s is not a directory", *dir)
	}
	return store.Open(nil, *dir, nil)
}

func renderScan(infos []store.ArtifactInfo) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tkind\tsize\tsections\tstatus")
	for _, info := range infos {
		status := "ok"
		if info.Err != nil {
			status = info.Err.Error()
		}
		switch info.Kind {
		case "lock", "temp", "corrupt", "foreign":
			status = "-"
		}
		sections := "-"
		if info.Kind == "artifact" && info.Err == nil {
			sections = fmt.Sprint(info.Sections)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\n", info.Name, info.Kind, info.Size, sections, status)
	}
	tw.Flush()
}

// cmdStoreStat lists and classifies the directory's contents without
// modifying anything.
func cmdStoreStat(args []string) error {
	fs := flag.NewFlagSet("store stat", flag.ExitOnError)
	s, err := openStoreDir(fs, args)
	if err != nil {
		return err
	}
	infos, err := s.Scan(false)
	if err != nil {
		return err
	}
	renderScan(infos)
	var kinds = map[string]int{}
	for _, info := range infos {
		kinds[info.Kind]++
	}
	fmt.Printf("%d files: %d artifacts, %d locks, %d temps, %d corrupt, %d foreign\n",
		len(infos), kinds["artifact"], kinds["lock"], kinds["temp"], kinds["corrupt"], kinds["foreign"])
	return nil
}

// cmdStoreVerify re-checks every artifact's checksums; with -quarantine,
// damaged artifacts are moved aside to .corrupt exactly as a failed read
// would. A verification failure makes the command exit nonzero so CI and
// scripts can gate on it.
func cmdStoreVerify(args []string) error {
	fs := flag.NewFlagSet("store verify", flag.ExitOnError)
	quarantine := fs.Bool("quarantine", false, "move damaged artifacts aside to <name>.corrupt")
	s, err := openStoreDir(fs, args)
	if err != nil {
		return err
	}
	infos, err := s.Scan(*quarantine)
	if err != nil {
		return err
	}
	var bad int
	for _, info := range infos {
		if info.Kind != "artifact" {
			continue
		}
		if info.Err != nil {
			bad++
			fmt.Printf("FAIL %s: %v\n", info.Name, info.Err)
		} else {
			fmt.Printf("ok   %s (%d sections, %d bytes)\n", info.Name, info.Sections, info.Size)
		}
	}
	if bad > 0 {
		return fmt.Errorf("store: %d artifact(s) failed verification", bad)
	}
	return nil
}

// cmdStoreGC removes crash debris: orphaned atomic-write temp files older
// than -temp-age and, with -purge-corrupt, quarantined artifacts. With
// -dry-run it only lists what would be reclaimed.
func cmdStoreGC(args []string) error {
	fs := flag.NewFlagSet("store gc", flag.ExitOnError)
	tempAge := fs.Duration("temp-age", time.Hour, "minimum age before an orphaned temp file is collected")
	purge := fs.Bool("purge-corrupt", false, "also delete quarantined .corrupt artifacts")
	dryRun := fs.Bool("dry-run", false, "list reclaimable files without deleting them")
	s, err := openStoreDir(fs, args)
	if err != nil {
		return err
	}
	removed, err := s.GC(store.GCOptions{TempAge: *tempAge, PurgeCorrupt: *purge, DryRun: *dryRun})
	if err != nil {
		return err
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	for _, name := range removed {
		fmt.Println(verb, name)
	}
	if *dryRun {
		fmt.Printf("%d file(s) reclaimable (dry run, nothing deleted)\n", len(removed))
	} else {
		fmt.Printf("%d file(s) removed\n", len(removed))
	}
	return nil
}
