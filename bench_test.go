// Benchmark harness: one benchmark per evaluation artifact of the paper
// (DESIGN.md §5 maps artifacts to benches) plus ablations for the design
// choices in DESIGN.md §6. Run with:
//
//	go test -bench=. -benchmem
//
// The Table 3 benches measure the full discover-and-detect pipeline on the
// corresponding synthetic dataset and report recall/precision as metrics;
// the Figure benches measure the stage behind each GUI view; the Ablation
// benches compare the optimized and naive engines.
package anmat

import (
	"context"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/experiments"
	"github.com/anmat/anmat/internal/fd"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
	"github.com/anmat/anmat/internal/tokenize"
)

const benchRows = 5000

// benchTable3 runs one Table 3 block end to end per iteration and reports
// recall/precision of the final iteration as metrics.
func benchTable3(b *testing.B, run func(n int) (experiments.Table3Report, error)) {
	b.Helper()
	var rep experiments.Table3Report
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err = run(benchRows)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Recall, "recall")
	b.ReportMetric(rep.Precision, "precision")
	b.ReportMetric(float64(rep.Discovered), "rules")
}

func BenchmarkTable3_D1_PhoneState(b *testing.B) {
	benchTable3(b, experiments.Table3D1)
}

func BenchmarkTable3_D2_NameGender(b *testing.B) {
	benchTable3(b, experiments.Table3D2)
}

func BenchmarkTable3_D5_ZipCity(b *testing.B) {
	benchTable3(b, experiments.Table3D5City)
}

func BenchmarkTable3_D5_ZipState(b *testing.B) {
	benchTable3(b, experiments.Table3D5State)
}

// BenchmarkFigure2_Discovery measures the Figure 2 algorithm in both key
// modes across sizes.
func BenchmarkFigure2_Discovery(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    discovery.Mode
	}{{"Tokens", discovery.ModeTokens}, {"NGrams", discovery.ModeNGrams}} {
		for _, n := range []int{1000, benchRows} {
			ds := datagen.NameGender(n, 0.005, experiments.Seed)
			cfg := discovery.Default()
			cfg.Mode = mode.m
			b.Run(mode.name+"/"+itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := discovery.Discover(ds.Table, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure3_Profiling measures the profiling view's computation.
func BenchmarkFigure3_Profiling(b *testing.B) {
	ds := datagen.ZipCity(benchRows, 0.01, experiments.Seed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := profile.ProfileTable(ds.Table)
		if len(tp.Columns) != 3 {
			b.Fatal("bad profile")
		}
		for j := range tp.Columns {
			profile.ColumnPatterns(ds.Table.InternedColumn(j))
		}
	}
}

// BenchmarkFigure4_TableauRender measures producing the discovered-PFD
// view: discovery plus tableau rendering.
func BenchmarkFigure4_TableauRender(b *testing.B) {
	ds := datagen.ZipCity(benchRows, 0.01, experiments.Seed)
	res, err := discovery.Discover(ds.Table, discovery.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		for _, p := range res.PFDs {
			sb.WriteString(p.String())
			sb.WriteString(p.Tableau.String())
		}
		if sb.Len() == 0 {
			b.Fatal("nothing rendered")
		}
	}
}

// BenchmarkFigure5_ViolationListing measures the violation view: detection
// over confirmed PFDs.
func BenchmarkFigure5_ViolationListing(b *testing.B) {
	ds := datagen.NameGender(benchRows, 0.005, experiments.Seed)
	res, err := discovery.Discover(ds.Table, discovery.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var count int
	for i := 0; i < b.N; i++ {
		vs, err := detect.New(ds.Table, detect.Options{}).DetectAll(res.PFDs)
		if err != nil {
			b.Fatal(err)
		}
		count = len(vs)
	}
	b.ReportMetric(float64(count), "violations")
}

// BenchmarkParallelDetection measures the concurrent detection engine on
// the Figure-5-scale table across worker counts. The /p1 variant is the
// sequential baseline to compare the others' ns/op against; the
// detector (and so the column indexes) is shared across iterations, so
// the bench isolates the tableau-row fan-out rather than index builds.
func BenchmarkParallelDetection(b *testing.B) {
	ds := datagen.NameGender(benchRows, 0.005, experiments.Seed)
	res, err := discovery.Discover(ds.Table, discovery.Default())
	if err != nil || len(res.PFDs) == 0 {
		b.Fatalf("discover: %v (%d rules)", err, len(res.PFDs))
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run("p"+itoa(par), func(b *testing.B) {
			d := detect.New(ds.Table, detect.Options{})
			if _, err := d.DetectAllContext(context.Background(), res.PFDs, par); err != nil {
				b.Fatal(err) // warm the index cache outside the timer
			}
			b.ReportAllocs()
			b.ResetTimer()
			var count int
			for i := 0; i < b.N; i++ {
				r, err := d.DetectAllContext(context.Background(), res.PFDs, par)
				if err != nil {
					b.Fatal(err)
				}
				count = len(r.Violations)
			}
			b.ReportMetric(float64(count), "violations")
		})
	}
}

// BenchmarkDetectorIndexReuse quantifies the shared index cache: Fresh
// rebuilds the detector (and its per-column indexes) every iteration,
// Shared reuses one detector the way a session does across its
// detection and repair stages.
func BenchmarkDetectorIndexReuse(b *testing.B) {
	ds := datagen.PhoneState(benchRows, 0.005, experiments.Seed)
	p := phonePFD(b, ds.Table)
	b.Run("Fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := detect.New(ds.Table, detect.Options{}).Detect(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Shared", func(b *testing.B) {
		d := detect.New(ds.Table, detect.Options{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Detect(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParamSweep measures the Section 4 parameter sweep (coverage and
// violation-ratio trade-off).
func BenchmarkParamSweep(b *testing.B) {
	b.Run("Coverage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.SweepCoverage(2000, []float64{0.01, 0.05, 0.2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Violations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.SweepViolations(2000, []float64{0, 0.05}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// phonePFD mines the phone→state PFD once for the ablation benches.
func phonePFD(b *testing.B, t *table.Table) *pfd.PFD {
	b.Helper()
	res, err := discovery.Discover(t, discovery.Default())
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range res.PFDs {
		if p.LHS == "phone" && p.RHS == "state" {
			// Constant rows only: the index ablation targets them.
			tp := tableau.New(p.Tableau.ConstantRows()...)
			return pfd.New(p.Table, p.LHS, p.RHS, tp)
		}
	}
	b.Fatal("no phone→state PFD")
	return nil
}

// BenchmarkAblation_ConstantDetection compares the pattern index against a
// full scan (DESIGN.md §6.1).
func BenchmarkAblation_ConstantDetection(b *testing.B) {
	ds := datagen.PhoneState(benchRows, 0.005, experiments.Seed)
	p := phonePFD(b, ds.Table)
	b.Run("Indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := detect.New(ds.Table, detect.Options{}).Detect(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := detect.New(ds.Table, detect.Options{DisableIndex: true}).Detect(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_VariableDetection compares blocking against the
// quadratic pair check (DESIGN.md §6.2). Both variants run at the same
// size; it is kept below benchRows because the quadratic engine touches
// every tuple pair (n=1000 → ~500k EquivalentUnder calls per iteration).
func BenchmarkAblation_VariableDetection(b *testing.B) {
	ds := datagen.ZipCity(1000, 0.01, experiments.Seed)
	q := pattern.MustParseConstrained(`<\D{4}>\D`)
	p := pfd.New(ds.Table.Name(), "zip", "city",
		tableau.New(tableau.Row{LHS: q, RHS: tableau.Wildcard}))
	b.Run("Blocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := detect.New(ds.Table, detect.Options{}).Detect(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Quadratic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := detect.New(ds.Table, detect.Options{DisableBlocking: true, DisableIndex: true}).Detect(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_TableauMinimize measures minimization (DESIGN.md §6.4).
func BenchmarkAblation_TableauMinimize(b *testing.B) {
	ds := datagen.ZipCity(benchRows, 0.01, experiments.Seed)
	cfg := discovery.Default()
	res, err := discovery.Discover(ds.Table, cfg)
	if err != nil || len(res.PFDs) == 0 {
		b.Fatalf("discover: %v", err)
	}
	rows := res.PFDs[0].Tableau.Rows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := tableau.New(rows...)
		tp.Minimize()
	}
}

// BenchmarkBaseline_FDvsPFD measures the Section 1 comparison: whole-value
// FD checking vs PFD detection on the same dirty data.
func BenchmarkBaseline_FDvsPFD(b *testing.B) {
	ds := datagen.PhoneState(benchRows, 0.005, experiments.Seed)
	p := phonePFD(b, ds.Table)
	b.Run("PFD", func(b *testing.B) {
		var caught int
		for i := 0; i < b.N; i++ {
			vs, err := detect.New(ds.Table, detect.Options{}).Detect(p)
			if err != nil {
				b.Fatal(err)
			}
			caught = len(vs)
		}
		b.ReportMetric(float64(caught), "violations")
	})
	b.Run("FD", func(b *testing.B) {
		var caught int
		for i := 0; i < b.N; i++ {
			vs, err := fd.Check(ds.Table, fd.FD{LHS: "phone", RHS: "state"})
			if err != nil {
				b.Fatal(err)
			}
			caught = len(vs)
		}
		b.ReportMetric(float64(caught), "violations")
	})
	b.Run("FDDiscovery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd.Discover(ds.Table, 0)
		}
	})
}

// Micro-benchmarks for the pattern substrate.

func BenchmarkPattern_Match(b *testing.B) {
	p := pattern.MustParse(`850\D{7}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Matches("8505467600") {
			b.Fatal("should match")
		}
	}
}

func BenchmarkPattern_Containment(b *testing.B) {
	small := pattern.MustParse(`John\ \A*`)
	big := pattern.MustParse(`\LU\LL*\ \A*`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !big.Contains(small) {
			b.Fatal("containment expected")
		}
	}
}

func BenchmarkPattern_Signature(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pattern.Signature("Holloway, Donald E.") == "" {
			b.Fatal("empty signature")
		}
	}
}

func BenchmarkPattern_ExtractKey(b *testing.B) {
	q := pattern.MustParseConstrained(`<\LU\LL*\ >\A*`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(q.Extract("John Charles")) == 0 {
			b.Fatal("no key")
		}
	}
}

func BenchmarkTokenize(b *testing.B) {
	b.Run("Tokens", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(tokenize.Tokenize("Holloway, Donald E.")) != 3 {
				b.Fatal("bad tokenization")
			}
		}
	})
	b.Run("NGrams", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(tokenize.NGrams("8505467600", 3)) != 8 {
				b.Fatal("bad n-grams")
			}
		}
	})
}

func BenchmarkDocstore(b *testing.B) {
	b.Run("Insert", func(b *testing.B) {
		s := docstore.NewMem()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Insert("c", docstore.Doc{"k": i})
		}
	})
	b.Run("Find", func(b *testing.B) {
		s := docstore.NewMem()
		for i := 0; i < 1000; i++ {
			s.Insert("c", docstore.Doc{"k": i % 10})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(s.Find("c", docstore.Filter{"k": 3})) != 100 {
				b.Fatal("bad find")
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
