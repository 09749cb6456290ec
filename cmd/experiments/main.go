// Command experiments regenerates the paper's evaluation tables and
// figures over the synthetic HR dataset. With no flags it runs
// everything; -exp selects one experiment (table1, fig3a, fig3b,
// fig4a, fig4b, fig5a, fig5b, fig6, fig7).
//
// Usage:
//
//	experiments [-exp id] [-n items] [-seed n] [-workers n] [-bins n]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

// The -seed and -bins defaults, which the golden test runs with too.
const (
	defaultSeed = 20250612
	defaultBins = 20
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: all, table1, fig3a, fig3b, fig4a, fig4b, fig5a, fig5b, fig6, fig7, ablations")
		n       = flag.Int("n", dataset.DefaultSize, "number of dataset items")
		seed    = flag.Uint64("seed", defaultSeed, "dataset generation seed")
		workers = flag.Int("workers", experiments.DefaultWorkers, "parallel scoring workers")
		bins    = flag.Int("bins", defaultBins, "histogram bins for fig6/fig7")
	)
	flag.Parse()
	if err := run(*exp, *n, *seed, *workers, *bins); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(exp string, n int, seed uint64, workers, bins int) error {
	set, err := dataset.Generate(seed, n)
	if err != nil {
		return err
	}
	suite := experiments.NewSuite(set, workers)
	ctx := context.Background()
	want := func(id string) bool { return exp == "all" || exp == id }
	ran := false

	if want("table1") {
		ran = true
		printTable1()
	}
	for _, pair := range []struct {
		id       string
		contrast dataset.Label
	}{
		{"fig3a", dataset.LabelWrong},
		{"fig3b", dataset.LabelPartial},
	} {
		if !want(pair.id) {
			continue
		}
		ran = true
		rows, err := suite.Fig3(ctx, pair.contrast)
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n%s\n", pair.id, experiments.FormatFig3(rows))
	}
	for _, pair := range []struct {
		id       string
		contrast dataset.Label
	}{
		{"fig4a", dataset.LabelWrong},
		{"fig4b", dataset.LabelPartial},
	} {
		if !want(pair.id) {
			continue
		}
		ran = true
		rows, err := suite.Fig4(ctx, pair.contrast)
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n%s\n", pair.id, experiments.FormatFig4(rows))
	}
	for _, pair := range []struct {
		id       string
		contrast dataset.Label
	}{
		{"fig5a", dataset.LabelWrong},
		{"fig5b", dataset.LabelPartial},
	} {
		if !want(pair.id) {
			continue
		}
		ran = true
		rows, err := suite.Fig5(ctx, pair.contrast)
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n%s\n", pair.id, experiments.FormatFig5(rows))
	}
	if want("fig6") {
		ran = true
		proposed, pyes, err := suite.Fig6(ctx, bins)
		if err != nil {
			return err
		}
		fmt.Printf("== fig6 ==\n(a) %s(b) %s\n",
			experiments.FormatDistribution(proposed, 40),
			experiments.FormatDistribution(pyes, 40))
	}
	if want("fig7") {
		ran = true
		geo, har, err := suite.Fig7(ctx, bins)
		if err != nil {
			return err
		}
		fmt.Printf("== fig7 ==\n(a) %s(b) %s\n",
			experiments.FormatDistribution(geo, 40),
			experiments.FormatDistribution(har, 40))
	}
	if want("ablations") {
		ran = true
		if err := runAblations(ctx, suite); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment id %q", exp)
	}
	return nil
}

// runAblations prints the DESIGN.md §4 studies against the partial
// contrast (the hard case where design choices matter).
func runAblations(ctx context.Context, suite *experiments.Suite) error {
	fmt.Println("== ablations (correct vs partial) ==")
	ens, err := suite.AblationEnsembleSize(ctx, dataset.LabelPartial)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("-- ensemble size --", ens))
	gat, err := suite.AblationGating(ctx, dataset.LabelPartial)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("-- cross-model combiner --", gat))
	norm, err := suite.AblationNormalization(ctx, dataset.LabelPartial)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("-- normalization (Eq. 4) --", norm))
	spl, err := suite.AblationSplitter(ctx, dataset.LabelPartial)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("-- splitter (§IV-A) --", spl))
	topk, err := suite.AblationTopK(ctx, dataset.LabelPartial, []int{1, 3, 5})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("-- retrieval depth --", topk))
	return nil
}

func printTable1() {
	fmt.Println("== table1: contradiction types ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TYPE\tPROMPT\tGENERATED RESPONSE")
	for _, ex := range dataset.ContradictionExamples() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", ex.Type, wrap(ex.Prompt, 38), wrap(ex.Response, 44))
	}
	w.Flush()
	fmt.Println()
}

// wrap folds long text for the fixed-width table.
func wrap(s string, width int) string {
	words := strings.Fields(s)
	var lines []string
	cur := ""
	for _, w := range words {
		if cur != "" && len(cur)+1+len(w) > width {
			lines = append(lines, cur)
			cur = w
			continue
		}
		if cur == "" {
			cur = w
		} else {
			cur += " " + w
		}
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return strings.Join(lines, "\\n")
}
