package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/htacs/ata/internal/crowd"
)

// WriteRowsCSV emits the offline-sweep rows as CSV with a header, ready
// for gnuplot/pandas. All measured columns are included regardless of the
// figure (consumers project what they need).
func WriteRowsCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	header := []string{"tasks", "workers", "groups", "algorithm",
		"matching_seconds", "lsap_seconds", "total_seconds", "objective"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: writing CSV header: %w", err)
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.NumTasks),
			strconv.Itoa(r.NumWorkers),
			strconv.Itoa(r.NumGroups),
			r.Algorithm,
			strconv.FormatFloat(r.MatchingSeconds, 'f', 6, 64),
			strconv.FormatFloat(r.LSAPSeconds, 'f', 6, 64),
			strconv.FormatFloat(r.TotalSeconds, 'f', 6, 64),
			strconv.FormatFloat(r.Objective, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("experiments: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig5CSV emits the online-study curves as CSV: one row per minute
// with the quality, cumulative-throughput and retention series of each
// strategy (the exact series Figures 5a–5c plot).
func (f *Fig5Result) WriteFig5CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"minute"}
	for _, s := range crowd.Strategies {
		header = append(header,
			string(s)+"_quality_pct", string(s)+"_completed", string(s)+"_alive_frac")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: writing CSV header: %w", err)
	}
	type series struct {
		qual []float64
		thr  []int
		ret  []float64
	}
	bySt := map[crowd.Strategy]series{}
	for _, s := range crowd.Strategies {
		ret := f.Study.RetentionCurve(s, f.Grid)
		fr := make([]float64, len(ret))
		for i, p := range ret {
			fr[i] = p.Fraction
		}
		bySt[s] = series{
			qual: f.Study.QualityCurve(s, f.Grid),
			thr:  f.Study.ThroughputCurve(s, f.Grid),
			ret:  fr,
		}
	}
	for i, m := range f.Grid {
		rec := []string{strconv.FormatFloat(m, 'f', 1, 64)}
		for _, s := range crowd.Strategies {
			sr := bySt[s]
			rec = append(rec,
				strconv.FormatFloat(sr.qual[i], 'f', 2, 64),
				strconv.Itoa(sr.thr[i]),
				strconv.FormatFloat(sr.ret[i], 'f', 3, 64),
			)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("experiments: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
