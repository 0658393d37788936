package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"graphlocality/internal/vfs"
)

// ManifestVersion is the on-disk manifest format version.
const ManifestVersion = 1

// Manifest is the machine-readable record of one run: what every stage
// did (spans), how much work the pipeline processed (counters), and the
// measurements taken along the way (gauges, histogram summaries, wall
// fields). Counters, span calls/events/bytes and histogram counts are
// deterministic facts; everything else is a measurement that Normalized
// clears before comparison.
type Manifest struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// Command is the invocation the manifest records ("experiment table4").
	Command string `json:"command,omitempty"`
	// StartedAt is the RFC3339 run start (measurement).
	StartedAt string `json:"started_at,omitempty"`
	// Parallel is the scheduler worker budget (environment; normalized so
	// serial and parallel runs of the same workload compare equal).
	Parallel int `json:"parallel,omitempty"`
	// GoMaxProcs is the machine parallelism (environment; normalized).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// WallMS is the whole-run wall clock in milliseconds (measurement).
	WallMS float64 `json:"wall_ms,omitempty"`

	Counters   map[string]uint64          `json:"counters,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramRecord `json:"histograms,omitempty"`
	Spans      []SpanRecord               `json:"spans,omitempty"`
}

// SpanRecord is the serialized form of one Span. WallMS is a measurement;
// the other fields are deterministic facts.
type SpanRecord struct {
	Name   string  `json:"name"`
	Calls  uint64  `json:"calls"`
	Events uint64  `json:"events,omitempty"`
	Bytes  uint64  `json:"bytes,omitempty"`
	WallMS float64 `json:"wall_ms,omitempty"`
}

// HistogramRecord is the serialized summary of one Histogram. Count is a
// deterministic fact; Sum/Min/Max are measurements.
type HistogramRecord struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Meta carries the run identity stamped onto a manifest snapshot.
type Meta struct {
	Tool       string
	Command    string
	StartedAt  string
	Parallel   int
	GoMaxProcs int
	WallMS     float64
}

// Manifest snapshots the registry into a manifest. Spans are emitted in
// sorted name order, so the snapshot is deterministic regardless of the
// goroutine interleaving that populated the registry.
func (r *Registry) Manifest(meta Meta) Manifest {
	m := Manifest{
		Version:    ManifestVersion,
		Tool:       meta.Tool,
		Command:    meta.Command,
		StartedAt:  meta.StartedAt,
		Parallel:   meta.Parallel,
		GoMaxProcs: meta.GoMaxProcs,
		WallMS:     meta.WallMS,
	}
	r.mu.Lock()
	if len(r.counts) > 0 {
		m.Counters = make(map[string]uint64, len(r.counts))
		for n, c := range r.counts {
			m.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		m.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			m.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		m.Histograms = make(map[string]HistogramRecord, len(r.hists))
		for n, h := range r.hists {
			m.Histograms[n] = h.Snapshot()
		}
	}
	r.mu.Unlock()
	for _, name := range r.spanNames() {
		m.Spans = append(m.Spans, r.Span(name).Record())
	}
	return m
}

// Normalized returns a copy of m with every measurement cleared — run
// timestamps, wall clocks, environment (parallel level, GOMAXPROCS),
// gauges, and histogram sums — keeping only the deterministic facts.
// Two runs of the same workload must have equal normalized manifests; a
// difference is real work drift, not timing noise.
func (m Manifest) Normalized() Manifest {
	n := m
	n.StartedAt = ""
	n.Parallel = 0
	n.GoMaxProcs = 0
	n.WallMS = 0
	n.Gauges = nil
	if m.Histograms != nil {
		n.Histograms = make(map[string]HistogramRecord, len(m.Histograms))
		for k, h := range m.Histograms {
			n.Histograms[k] = HistogramRecord{Count: h.Count}
		}
	}
	n.Spans = append([]SpanRecord(nil), m.Spans...)
	for i := range n.Spans {
		n.Spans[i].WallMS = 0
	}
	sort.Slice(n.Spans, func(i, j int) bool { return n.Spans[i].Name < n.Spans[j].Name })
	if m.Counters != nil {
		n.Counters = make(map[string]uint64, len(m.Counters))
		for k, v := range m.Counters {
			n.Counters[k] = v
		}
	}
	return n
}

// Encode marshals m as indented JSON with a trailing newline.
func (m Manifest) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeManifest parses a manifest and validates its version.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("obs: decoding manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return Manifest{}, fmt.Errorf("obs: unsupported manifest version %d (want %d)", m.Version, ManifestVersion)
	}
	return m, nil
}

// ReadManifestFile loads a manifest from path.
func ReadManifestFile(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	return DecodeManifest(data)
}

// WriteManifestFile writes m to path as JSON through the atomic commit
// protocol (vfs.WriteFileAtomic), so a crash mid-write can never leave a
// truncated manifest where a previous complete one stood.
func WriteManifestFile(path string, m Manifest) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(nil, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Render pretty-prints the manifest: run metadata, counters sorted by
// name, and the span tree grouped on "/"-separated name segments.
func (m Manifest) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s %s (manifest v%d)\n", m.Tool, m.Command, m.Version)
	if m.StartedAt != "" {
		fmt.Fprintf(w, "started %s", m.StartedAt)
		if m.WallMS > 0 {
			fmt.Fprintf(w, ", wall %.1f ms", m.WallMS)
		}
		fmt.Fprintln(w)
	}
	if m.Parallel > 0 || m.GoMaxProcs > 0 {
		fmt.Fprintf(w, "parallel %d, GOMAXPROCS %d\n", m.Parallel, m.GoMaxProcs)
	}
	if len(m.Spans) > 0 {
		fmt.Fprintln(w, "\nSpans:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  stage\tcalls\tevents\tbytes\twall (ms)")
		last := []string{}
		for _, s := range m.Spans {
			parts := strings.Split(s.Name, "/")
			// Indent by the length of the shared prefix with the previous
			// span, rendering the name tree without materializing it.
			shared := 0
			for shared < len(parts)-1 && shared < len(last)-1 && parts[shared] == last[shared] {
				shared++
			}
			indent := strings.Repeat("  ", shared)
			fmt.Fprintf(tw, "  %s%s\t%d\t%d\t%d\t%.1f\n",
				indent, strings.Join(parts[shared:], "/"), s.Calls, s.Events, s.Bytes, s.WallMS)
			last = parts
		}
		tw.Flush()
	}
	if len(m.Counters) > 0 {
		fmt.Fprintln(w, "\nCounters:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, k := range sortedKeys(m.Counters) {
			fmt.Fprintf(tw, "  %s\t%d\n", k, m.Counters[k])
		}
		tw.Flush()
	}
	if len(m.Gauges) > 0 {
		fmt.Fprintln(w, "\nGauges:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, k := range sortedKeys(m.Gauges) {
			fmt.Fprintf(tw, "  %s\t%g\n", k, m.Gauges[k])
		}
		tw.Flush()
	}
	if len(m.Histograms) > 0 {
		fmt.Fprintln(w, "\nHistograms:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  name\tcount\tsum\tmin\tmax")
		for _, k := range sortedKeys(m.Histograms) {
			h := m.Histograms[k]
			fmt.Fprintf(tw, "  %s\t%d\t%g\t%g\t%g\n", k, h.Count, h.Sum, h.Min, h.Max)
		}
		tw.Flush()
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
