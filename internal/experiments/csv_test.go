package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"

	"github.com/htacs/ata/internal/crowd"
)

func TestWriteRowsCSV(t *testing.T) {
	rows, err := SweepGroups(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(records) != len(rows)+1 {
		t.Fatalf("%d records for %d rows", len(records), len(rows))
	}
	if records[0][0] != "tasks" || records[0][4] != "matching_seconds" || records[0][7] != "objective" {
		t.Fatalf("header = %v", records[0])
	}
	for i, r := range rows {
		rec := records[i+1]
		if rec[3] != r.Algorithm {
			t.Fatalf("row %d algorithm %q != %q", i, rec[3], r.Algorithm)
		}
		v, err := strconv.ParseFloat(rec[6], 64)
		if err != nil || v < r.TotalSeconds-1e-6 || v > r.TotalSeconds+1e-6 {
			t.Fatalf("row %d total %q != %g", i, rec[6], r.TotalSeconds)
		}
	}
}

func TestWriteFig5CSV(t *testing.T) {
	params := crowd.DefaultParams()
	params.SessionMinutes = 6
	params.PoolPerSession = 150
	res, err := Fig5(Fig5Options{SessionsPerStrategy: 2, Seed: 5, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteFig5CSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(records) != len(res.Grid)+1 {
		t.Fatalf("%d records for %d grid points", len(records), len(res.Grid))
	}
	// 1 minute column + 3 columns per strategy.
	wantCols := 1 + 3*len(crowd.Strategies)
	for i, rec := range records {
		if len(rec) != wantCols {
			t.Fatalf("record %d has %d columns, want %d", i, len(rec), wantCols)
		}
	}
}
