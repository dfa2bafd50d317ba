package experiments

import (
	"context"
	"fmt"

	"sectorpack/internal/angular"
	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "Ablation: candidate-orientation lemma vs uniform angle grid",
		Claim: "customer-angle candidates are exactly optimal for one antenna; an equal-size uniform grid is not",
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Ablation: greedy antenna processing order",
		Claim: "capacity-descending order dominates ascending order on heterogeneous antennas",
		Run:   runE12,
	})
	register(Experiment{
		ID:    "E14",
		Title: "Heuristic shoot-out at medium scale",
		Claim: "localsearch/anneal/lpround close part of greedy's gap to the certified bound",
		Run:   runE14,
	})
}

// gridBestWindow is the ablated single-antenna solver: k orientations on a
// uniform grid instead of the candidate set.
func gridBestWindow(eng *angular.Engine, k int) (int64, error) {
	grid := make([]float64, k)
	for g := range grid {
		grid[g] = geom.TwoPi * float64(g) / float64(k)
	}
	win, err := eng.BestWindowAt(context.Background(), 0, grid, nil, knapsack.Options{})
	return win.Profit, err
}

func runE11(opt Options) (Report, error) {
	rep := Report{ID: "E11", Title: "candidate discretization ablation", Findings: map[string]float64{}}
	trials := pick(opt, 20, 5)
	n := pick(opt, 12, 8)

	tb := stats.NewTable("Table E11: single-antenna profit vs exact — candidates vs uniform grid",
		"method", "geo-ratio", "min-ratio", "exact matches")
	cfgs := mkConfigs(opt, gen.Uniform, model.Sectors, n, 1, trials, func(c *gen.Config) {
		c.Rho = 0.7 // narrow sectors punish grid misses
	})
	// Exact matches are counted on the integer profits, not on the float
	// ratio: ratioOf can round to exactly 1.0 for near-equal huge profits,
	// so `ratio == 1.0` overcounts (and trips the floateq analyzer).
	type pair struct {
		cand, grid           float64
		candMatch, gridMatch bool
	}
	outs, err := parallelMap(opt, cfgs, func(cfg gen.Config) (pair, error) {
		in, err := gen.Generate(cfg)
		if err != nil {
			return pair{}, err
		}
		ex, err := runSolver("exact", in, core.Options{})
		if err != nil {
			return pair{}, err
		}
		eng := angular.NewEngine(in)
		win, err := eng.BestWindow(context.Background(), 0, nil, knapsack.Options{})
		if err != nil {
			return pair{}, err
		}
		gridProfit, err := gridBestWindow(eng, len(eng.Candidates(0)))
		if err != nil {
			return pair{}, err
		}
		return pair{
			cand:      ratioOf(win.Profit, ex.Profit),
			grid:      ratioOf(gridProfit, ex.Profit),
			candMatch: win.Profit == ex.Profit,
			gridMatch: gridProfit == ex.Profit,
		}, nil
	})
	if err != nil {
		return rep, err
	}
	var cands, grids []float64
	candMatches, gridMatches := 0, 0
	for _, o := range outs {
		cands = append(cands, o.cand)
		grids = append(grids, o.grid)
		if o.candMatch {
			candMatches++
		}
		if o.gridMatch {
			gridMatches++
		}
	}
	sc, sg := stats.Summarize(cands), stats.Summarize(grids)
	tb.AddRow("candidates", stats.GeoMean(cands), sc.Min, fmt.Sprintf("%d/%d", candMatches, trials))
	tb.AddRow("uniform-grid", stats.GeoMean(grids), sg.Min, fmt.Sprintf("%d/%d", gridMatches, trials))
	tb.Caption = "same orientation budget for both methods; only the lemma's candidates are always exact"
	rep.Tables = append(rep.Tables, tb)
	rep.Findings["cand_min_ratio"] = sc.Min
	rep.Findings["grid_min_ratio"] = sg.Min
	rep.Findings["cand_matches"] = float64(candMatches)
	rep.Findings["trials"] = float64(trials)
	return rep, nil
}

func runE12(opt Options) (Report, error) {
	rep := Report{ID: "E12", Title: "greedy order ablation", Findings: map[string]float64{}}
	trials := pick(opt, 15, 4)
	n := pick(opt, 60, 25)
	m := 3

	// The generator gives equal capacities; the mutation below makes
	// antenna 0 the smallest and antenna 2 the largest, so the explicit
	// order {0,1,2} is capacity-ascending.
	tb := stats.NewTable("Table E12: greedy profit by antenna order (heterogeneous capacities)",
		"order", "geo-profit-vs-desc", "min", "max")
	results := map[string][]float64{}
	cfgs := mkConfigs(opt, gen.Hotspot, model.Sectors, n, m, trials, nil)
	type pair struct{ desc, asc int64 }
	outs, err := parallelMap(opt, cfgs, func(cfg gen.Config) (pair, error) {
		in, err := gen.Generate(cfg)
		if err != nil {
			return pair{}, err
		}
		// capacities 1:2:4
		base := in.Antennas[0].Capacity
		in.Antennas[0].Capacity = base / 2
		in.Antennas[1].Capacity = base
		in.Antennas[2].Capacity = base * 2
		if in.Antennas[0].Capacity < 1 {
			in.Antennas[0].Capacity = 1
		}
		desc, err := runSolver("greedy", in, core.Options{SkipBound: true})
		if err != nil {
			return pair{}, err
		}
		ascSol, err := core.SolveGreedyOrdered(context.Background(), in, core.Options{SkipBound: true}, []int{0, 1, 2})
		if err != nil {
			return pair{}, err
		}
		return pair{desc: desc.Profit, asc: ascSol.Profit}, nil
	})
	if err != nil {
		return rep, err
	}
	for _, o := range outs {
		results["capacity-desc"] = append(results["capacity-desc"], 1.0)
		results["capacity-asc"] = append(results["capacity-asc"], ratioOf(o.asc, o.desc))
	}
	for _, name := range []string{"capacity-desc", "capacity-asc"} {
		s := stats.Summarize(results[name])
		tb.AddRow(name, stats.GeoMean(results[name]), s.Min, s.Max)
	}
	tb.Caption = "values normalized by the capacity-descending default; ascending order wastes the big antenna's flexibility"
	rep.Tables = append(rep.Tables, tb)
	rep.Findings["asc_geo_vs_desc"] = stats.GeoMean(results["capacity-asc"])
	return rep, nil
}

func runE14(opt Options) (Report, error) {
	rep := Report{ID: "E14", Title: "heuristic shoot-out", Findings: map[string]float64{}}
	trials := pick(opt, 6, 2)
	n := pick(opt, 120, 30)
	m := 3
	solvers := []string{"baseline", "greedy", "localsearch", "anneal", "lpround"}

	tb := stats.NewTable("Table E14: profit / certified bound by solver (hotspot, m=3)",
		"solver", "geo-ratio", "min-ratio")
	for _, name := range solvers {
		cfgs := mkConfigs(opt, gen.Hotspot, model.Sectors, n, m, trials, nil)
		ratios, err := parallelMap(opt, cfgs, func(cfg gen.Config) (float64, error) {
			in, err := gen.Generate(cfg)
			if err != nil {
				return 0, err
			}
			out, err := runSolver(name, in, core.Options{Seed: cfg.Seed})
			if err != nil {
				return 0, err
			}
			if out.Bound <= 0 {
				return 0, fmt.Errorf("E14: %s produced no bound", name)
			}
			return float64(out.Profit) / out.Bound, nil
		})
		if err != nil {
			return rep, err
		}
		s := stats.Summarize(ratios)
		tb.AddRow(name, stats.GeoMean(ratios), s.Min)
		rep.Findings["geo_"+name] = stats.GeoMean(ratios)
	}
	tb.Caption = "all solvers share the same certified bound, so the column is comparable across rows"
	rep.Tables = append(rep.Tables, tb)
	return rep, nil
}
