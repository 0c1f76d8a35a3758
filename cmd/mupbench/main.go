// Command mupbench regenerates the paper's evaluation: it runs the
// experiment index E01–E19 defined in package experiments (each
// reproducing one quantitative claim or design argument from Sections
// 4–5 of the paper) and prints the result tables.
//
// Usage:
//
//	mupbench                  # run everything at full scale
//	mupbench -scale 0.1       # quick pass
//	mupbench -run E04,E08     # selected experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

import "muppet/experiments"

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = the full-size tables)")
	run := flag.String("run", "", "comma-separated experiment IDs (e.g. E01,E08); empty = all")
	flag.Parse()

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, exp := range experiments.Registry() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		t0 := time.Now()
		table := exp.Run(experiments.Scale(*scale))
		fmt.Println(table.String())
		fmt.Printf("(%s took %v)\n\n", exp.ID, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -run %q\n", *run)
		os.Exit(2)
	}
	fmt.Printf("ran %d experiments in %v\n", ran, time.Since(start).Round(time.Millisecond))
}
