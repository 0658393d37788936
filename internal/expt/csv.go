package expt

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV export of experiment results, for plotting the figures outside the
// terminal renderer. Each writer emits one record per data point with
// stable headers.

// WriteSeriesCSV emits long-format records: series,label,value.
func WriteSeriesCSV(w io.Writer, series []Series) error {
	recs := [][]string{{"series", "degree_bin", "value"}}
	for _, s := range series {
		for i, l := range s.Labels {
			recs = append(recs, []string{s.Name, l, strconv.FormatFloat(s.Values[i], 'f', 4, 64)})
		}
	}
	return csv.NewWriter(w).WriteAll(recs)
}

// WriteTableIVCSV emits the SpMV execution results.
func WriteTableIVCSV(w io.Writer, rows []TableIVRow) error {
	recs := [][]string{{"dataset", "ra", "time_ms", "idle_pct", "l3_misses", "dtlb_misses"}}
	for _, r := range rows {
		recs = append(recs, []string{
			r.Dataset, r.Algorithm,
			strconv.FormatFloat(float64(r.Time.Microseconds())/1000, 'f', 3, 64),
			strconv.FormatFloat(r.IdlePct, 'f', 2, 64),
			strconv.FormatUint(r.L3Misses, 10),
			strconv.FormatUint(r.TLBMisses, 10),
		})
	}
	return csv.NewWriter(w).WriteAll(recs)
}

// WriteCoverageCSV emits Fig. 6 coverage curves.
func WriteCoverageCSV(w io.Writer, res []Fig6Result) error {
	recs := [][]string{{"dataset", "kind", "hubs", "in_hub_pct", "out_hub_pct"}}
	for _, r := range res {
		for i, h := range r.Curve.H {
			recs = append(recs, []string{
				r.Dataset, string(r.Kind), strconv.Itoa(h),
				strconv.FormatFloat(r.Curve.InHubPct[i], 'f', 2, 64),
				strconv.FormatFloat(r.Curve.OutHubPct[i], 'f', 2, 64),
			})
		}
	}
	return csv.NewWriter(w).WriteAll(recs)
}

// WriteDecompositionCSV emits Fig. 5 matrices in long format.
func WriteDecompositionCSV(w io.Writer, res []Fig5Result) error {
	recs := [][]string{{"dataset", "dst_class", "src_class", "pct", "dst_in_edges"}}
	for _, r := range res {
		for i, row := range r.Matrix.Pct {
			if r.Matrix.EdgeCount[i] == 0 {
				continue
			}
			for j, p := range row {
				recs = append(recs, []string{
					r.Dataset, r.Matrix.Classes[i], r.Matrix.Classes[j],
					strconv.FormatFloat(p, 'f', 2, 64),
					strconv.FormatUint(r.Matrix.EdgeCount[i], 10),
				})
			}
		}
	}
	return csv.NewWriter(w).WriteAll(recs)
}

// WriteFig2CSV emits the SlashBurn iteration snapshots.
func WriteFig2CSV(w io.Writer, snaps []Fig2Snapshot) error {
	recs := [][]string{{"iteration", "degree_bin", "norm_freq", "gcc_vertices", "max_degree"}}
	for _, s := range snaps {
		for i, l := range s.Labels {
			recs = append(recs, []string{
				strconv.Itoa(s.Iteration), l,
				strconv.FormatFloat(s.NormFreq[i], 'f', 4, 64),
				strconv.Itoa(s.Vertices),
				fmt.Sprint(s.MaxDegree),
			})
		}
	}
	return csv.NewWriter(w).WriteAll(recs)
}
