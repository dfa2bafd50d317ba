package experiments

import (
	"context"
	"sectorpack/internal/angular"
	"sectorpack/internal/core"
	"sectorpack/internal/fair"
	"sectorpack/internal/gen"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Price of fairness: max-min class floors vs pure efficiency",
		Claim: "enforcing the max-min floor costs a modest fraction of total profit while lifting the worst class from near-zero",
		Run:   runE18,
	})
}

func runE18(opt Options) (Report, error) {
	rep := Report{ID: "E18", Title: "price of fairness", Findings: map[string]float64{}}
	trials := pick(opt, 8, 3)
	n := pick(opt, 60, 24)
	m := 3
	numClasses := 3

	tb := stats.NewTable("Table E18: fairness floor and efficiency cost (hotspot, m=3, 3 classes by angle tercile)",
		"quantity", "geo-mean", "min", "max")
	type out struct {
		floorFair, floorEff, cost float64
	}
	cfgs := mkConfigs(opt, gen.Hotspot, model.Sectors, n, m, trials, nil)
	outs, err := parallelMap(opt, cfgs, func(cfg gen.Config) (out, error) {
		in, err := gen.Generate(cfg)
		if err != nil {
			return out{}, err
		}
		// Classes by angle tercile: hotspot workloads concentrate demand,
		// so some tercile is naturally disadvantaged.
		classes := make([]int, in.N())
		for i, c := range in.Customers {
			classes[i] = int(c.Theta / (2 * 3.14159265358979 / float64(numClasses)))
			if classes[i] >= numClasses {
				classes[i] = numClasses - 1
			}
		}
		// Fairness-aware orientations: antenna j aims at class j's best
		// window (profit-greedy orientations can strand a whole class).
		orient := make([]float64, m)
		eng := angular.NewEngine(in)
		for j := 0; j < m; j++ {
			active := make([]bool, in.N())
			for i := range active {
				active[i] = classes[i] == j%numClasses
			}
			win, err := eng.BestWindow(context.Background(), j, active, knapsack.Options{})
			if err != nil {
				return out{}, err
			}
			orient[j] = win.Alpha
		}
		fairSol, err := fair.SolveAt(in, classes, orient)
		if err != nil {
			return out{}, err
		}
		// Efficiency reference: the splittable LP at the same orientations.
		eff, err := core.SolveSplittable(context.Background(), in, core.Options{SkipBound: true})
		if err != nil {
			return out{}, err
		}
		// Efficiency's own worst-class fraction.
		classTotal := make([]float64, numClasses)
		classServed := make([]float64, numClasses)
		for i, c := range in.Customers {
			classTotal[classes[i]] += float64(c.Profit)
			var got float64
			for j := range eff.Frac[i] {
				got += eff.Frac[i][j]
			}
			classServed[classes[i]] += got * float64(c.Profit)
		}
		floorEff := 1.0
		for cls := 0; cls < numClasses; cls++ {
			if classTotal[cls] > 0 {
				if f := classServed[cls] / classTotal[cls]; f < floorEff {
					floorEff = f
				}
			}
		}
		cost := 1.0
		if eff.Value > 0 {
			cost = fairSol.Value / eff.Value
		}
		return out{floorFair: fairSol.MinFraction, floorEff: floorEff, cost: cost}, nil
	})
	if err != nil {
		return rep, err
	}
	var floorsFair, floorsEff, costs []float64
	for _, o := range outs {
		floorsFair = append(floorsFair, o.floorFair+1e-9)
		floorsEff = append(floorsEff, o.floorEff+1e-9)
		costs = append(costs, o.cost)
	}
	sf, se, sc := stats.Summarize(floorsFair), stats.Summarize(floorsEff), stats.Summarize(costs)
	tb.AddRow("worst-class fraction (fair)", stats.GeoMean(floorsFair), sf.Min, sf.Max)
	tb.AddRow("worst-class fraction (efficiency)", stats.GeoMean(floorsEff), se.Min, se.Max)
	tb.AddRow("fair value / efficient value", stats.GeoMean(costs), sc.Min, sc.Max)
	tb.Caption = "fairness (class-aware orientations + max-min LP) lifts the floor; last row compares its value to the profit-greedy splittable plan"
	rep.Tables = append(rep.Tables, tb)
	rep.Findings["floor_fair"] = stats.GeoMean(floorsFair)
	rep.Findings["floor_eff"] = stats.GeoMean(floorsEff)
	rep.Findings["efficiency_retained"] = stats.GeoMean(costs)
	return rep, nil
}
