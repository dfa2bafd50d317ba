package experiments

import (
	"fmt"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Empirical approximation ratio of greedy vs exact optimum",
		Claim: "successive best-window greedy achieves at least 1/2 of the optimum, and far more on non-adversarial inputs",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Greedy and LP-rounding against the certified upper bound",
		Claim: "on instances beyond exact reach, profit stays a constant fraction of the per-antenna Dantzig bound",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Identical vs heterogeneous antennas: greedy ratio",
		Claim: "identical antennas enjoy the 1-(1-1/m)^m >= 1-1/e successive-knapsack factor; heterogeneous keep 1/2",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Adversarial knapsack family: FPTAS epsilon sweep",
		Claim: "with a forced (1-eps) inner FPTAS and one antenna, total profit is at least (1-eps) x OPT",
		Run:   runE10,
	})
}

type shape struct{ n, m int }

func runE1(opt Options) (Report, error) {
	rep := Report{ID: "E1", Title: "greedy vs exact", Findings: map[string]float64{}}
	families := []gen.Family{gen.Uniform, gen.Hotspot}
	shapes := pick(opt, []shape{{12, 1}, {10, 2}, {12, 2}}, []shape{{8, 1}, {8, 2}})
	trials := pick(opt, 10, 3)

	tb := stats.NewTable("Table E1: empirical ratio greedy/OPT (exact baseline)",
		"family", "n", "m", "trials", "geo-ratio", "min-ratio")
	overallMin := 1.0
	var allRatios []float64
	for _, fam := range families {
		for _, sh := range shapes {
			cfgs := mkConfigs(opt, fam, model.Sectors, sh.n, sh.m, trials, nil)
			ratios, err := parallelMap(opt, cfgs, func(cfg gen.Config) (float64, error) {
				in, err := gen.Generate(cfg)
				if err != nil {
					return 0, err
				}
				g, err := runSolver("greedy", in, core.Options{SkipBound: true})
				if err != nil {
					return 0, err
				}
				ex, err := runSolver("exact", in, core.Options{})
				if err != nil {
					return 0, err
				}
				return ratioOf(g.Profit, ex.Profit), nil
			})
			if err != nil {
				return rep, err
			}
			s := stats.Summarize(ratios)
			tb.AddRow(string(fam), sh.n, sh.m, trials, stats.GeoMean(ratios), s.Min)
			if s.Min < overallMin {
				overallMin = s.Min
			}
			allRatios = append(allRatios, ratios...)
		}
	}
	tb.Caption = "ratio = greedy profit / exact optimum; the 1/2 guarantee is the floor, typical ratios are far higher"
	rep.Tables = append(rep.Tables, tb)
	rep.Findings["min_ratio"] = overallMin
	rep.Findings["geo_ratio"] = stats.GeoMean(allRatios)
	return rep, nil
}

func runE2(opt Options) (Report, error) {
	rep := Report{ID: "E2", Title: "profit vs certified bound", Findings: map[string]float64{}}
	ns := pick(opt, []int{40, 80, 160}, []int{25})
	trials := pick(opt, 6, 2)
	m := 3

	tb := stats.NewTable("Table E2: profit / certified upper bound (uniform, m=3)",
		"n", "solver", "geo-ratio", "min-ratio")
	minOverall := 1.0
	for _, n := range ns {
		for _, name := range []string{"greedy", "lpround"} {
			cfgs := mkConfigs(opt, gen.Uniform, model.Sectors, n, m, trials, nil)
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
					return 0, fmt.Errorf("E2: %s produced no bound", name)
				}
				return float64(out.Profit) / out.Bound, nil
			})
			if err != nil {
				return rep, err
			}
			s := stats.Summarize(ratios)
			tb.AddRow(n, name, stats.GeoMean(ratios), s.Min)
			if s.Min < minOverall {
				minOverall = s.Min
			}
		}
	}
	tb.Caption = "bound = min(total profit, sum of per-antenna Dantzig window bounds); it over-counts shared customers, so ratios below 1 reflect bound looseness as well as heuristic loss"
	rep.Tables = append(rep.Tables, tb)
	rep.Findings["min_ratio_vs_bound"] = minOverall
	return rep, nil
}

func runE6(opt Options) (Report, error) {
	rep := Report{ID: "E6", Title: "identical vs heterogeneous antennas", Findings: map[string]float64{}}
	trials := pick(opt, 10, 3)
	n := pick(opt, 11, 8)
	ms := pick(opt, []int{2, 3}, []int{2})

	tb := stats.NewTable("Table E6: greedy/OPT by antenna class (uniform)",
		"class", "m", "geo-ratio", "min-ratio")
	for _, m := range ms {
		for _, hetero := range []bool{false, true} {
			cfgs := mkConfigs(opt, gen.Uniform, model.Sectors, n, m, trials, func(c *gen.Config) {
				if hetero {
					c.RhoSpread = 0.3
				}
			})
			ratios, err := parallelMap(opt, cfgs, func(cfg gen.Config) (float64, error) {
				in, err := gen.Generate(cfg)
				if err != nil {
					return 0, err
				}
				if hetero {
					// Capacity heterogeneity on top of width spread.
					for j := range in.Antennas {
						if j%2 == 0 {
							in.Antennas[j].Capacity = in.Antennas[j].Capacity / 2
						} else {
							in.Antennas[j].Capacity = in.Antennas[j].Capacity * 3 / 2
						}
						if in.Antennas[j].Capacity < 1 {
							in.Antennas[j].Capacity = 1
						}
					}
				}
				g, err := runSolver("greedy", in, core.Options{SkipBound: true})
				if err != nil {
					return 0, err
				}
				ex, err := runSolver("exact", in, core.Options{})
				if err != nil {
					return 0, err
				}
				return ratioOf(g.Profit, ex.Profit), nil
			})
			if err != nil {
				return rep, err
			}
			class := "identical"
			key := fmt.Sprintf("identical_m%d_min", m)
			if hetero {
				class = "heterogeneous"
				key = fmt.Sprintf("hetero_m%d_min", m)
			}
			s := stats.Summarize(ratios)
			tb.AddRow(class, m, stats.GeoMean(ratios), s.Min)
			rep.Findings[key] = s.Min
		}
	}
	tb.Caption = "identical antennas: successive-knapsack factor 1-(1-1/m)^m; heterogeneous: 1/2"
	rep.Tables = append(rep.Tables, tb)
	return rep, nil
}

func runE10(opt Options) (Report, error) {
	rep := Report{ID: "E10", Title: "FPTAS epsilon sweep on adversarial instances", Findings: map[string]float64{}}
	trials := pick(opt, 8, 3)
	n := pick(opt, 15, 10)
	epss := pick(opt, []float64{0.5, 0.2, 0.1, 0.05}, []float64{0.5, 0.1})

	tb := stats.NewTable("Table E10: greedy(FPTAS eps)/OPT on the adversarial family (m=1)",
		"eps", "floor 1-eps", "geo-ratio", "min-ratio", "floor held")
	for _, eps := range epss {
		cfgs := mkConfigs(opt, gen.Adversarial, model.Sectors, n, 1, trials, nil)
		ratios, err := parallelMap(opt, cfgs, func(cfg gen.Config) (float64, error) {
			in, err := gen.Generate(cfg)
			if err != nil {
				return 0, err
			}
			g, err := runSolver("greedy", in, core.Options{
				SkipBound: true,
				Knapsack:  knapsack.Options{Eps: eps},
			})
			if err != nil {
				return 0, err
			}
			ex, err := runSolver("exact", in, core.Options{})
			if err != nil {
				return 0, err
			}
			return ratioOf(g.Profit, ex.Profit), nil
		})
		if err != nil {
			return rep, err
		}
		s := stats.Summarize(ratios)
		held := "yes"
		if s.Min < 1-eps-1e-9 {
			held = "NO"
		}
		tb.AddRow(eps, 1-eps, stats.GeoMean(ratios), s.Min, held)
		rep.Findings[fmt.Sprintf("min_ratio_eps_%g", eps)] = s.Min
		rep.Findings[fmt.Sprintf("floor_eps_%g", eps)] = 1 - eps
	}
	tb.Caption = "with one antenna the orientation sweep preserves the FPTAS guarantee end to end"
	rep.Tables = append(rep.Tables, tb)
	return rep, nil
}
