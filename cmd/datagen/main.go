// Command datagen writes the synthetic demo datasets to CSV:
//
//	datagen -family phone|name|zip|employee|compound -n 20000 \
//	        -err 0.005 -seed 2019 -out data.csv [-truth truth.csv]
//
// With -truth the injected-error ground truth (row, column, clean, dirty)
// is written alongside, so external tools can score detection.
//
// -skew s (s > 1, phone family only) draws area codes — the variable
// rule's block keys — from a Zipf distribution, producing the hot-block
// workload that exercises hash-partitioned detection under shard
// imbalance.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"github.com/anmat/anmat/internal/datagen"
)

func main() {
	family := flag.String("family", "phone", "dataset family: phone, name, zip, employee, compound, addresses")
	n := flag.Int("n", 20000, "number of rows")
	errRate := flag.Float64("err", 0.005, "error-injection rate")
	seed := flag.Int64("seed", 2019, "PRNG seed")
	skew := flag.Float64("skew", 0, "Zipf skew (> 1) of the block-key distribution; phone family only, 0 = uniform")
	out := flag.String("out", "", "output CSV path (required)")
	truth := flag.String("truth", "", "optional ground-truth CSV path")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		os.Exit(1)
	}
	if *skew != 0 && *family != "phone" {
		fmt.Fprintf(os.Stderr, "datagen: -skew is only supported by the phone family (got -family %s)\n", *family)
		os.Exit(1)
	}
	var ds *datagen.Dataset
	switch *family {
	case "phone":
		ds = datagen.PhoneStateSkewed(*n, *errRate, *seed, *skew)
	case "name":
		ds = datagen.NameGender(*n, *errRate, *seed)
	case "zip":
		ds = datagen.ZipCity(*n, *errRate, *seed)
	case "employee":
		ds = datagen.EmployeeID(*n, *errRate, *seed)
	case "compound":
		ds = datagen.Compound(*n, *errRate, *seed)
	case "addresses":
		ds = datagen.Addresses(*n, *errRate, *seed)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown family %q\n", *family)
		os.Exit(1)
	}
	if err := ds.Table.WriteCSVFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d rows, %d injected errors\n", *out, ds.Table.NumRows(), len(ds.Injected))

	if *truth != "" {
		f, err := os.Create(*truth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		w := csv.NewWriter(f)
		_ = w.Write([]string{"row", "column", "clean", "dirty"})
		for _, e := range ds.Injected {
			_ = w.Write([]string{strconv.Itoa(e.Cell.Row), e.Cell.Column, e.Clean, e.Dirty})
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d rows\n", *truth, len(ds.Injected))
	}
}
