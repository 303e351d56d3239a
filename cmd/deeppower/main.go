// Command deeppower trains and evaluates power-management policies on the
// simulated latency-critical applications.
//
// Usage:
//
//	deeppower -app xapian -method deeppower -episodes 10 -duration 120
//	deeppower -app moses -method retail
//	deeppower -app xapian -method deeppower -save policy.dpck
//	deeppower -app xapian -policy policy.dpck
//	deeppower -compare -app xapian
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/deeppower/deeppower"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("deeppower: ")

	var (
		appName  = flag.String("app", deeppower.Xapian, "application: xapian|masstree|moses|sphinx|img-dnn")
		method   = flag.String("method", deeppower.MethodDeepPower, "method: deeppower|baseline|retail|gemini|fixed:<ghz>|controller:<b>,<s>")
		episodes = flag.Int("episodes", 10, "DeepPower training episodes")
		duration = flag.Float64("duration", 120, "evaluation duration, virtual seconds")
		period   = flag.Float64("period", 120, "diurnal trace period, virtual seconds")
		workers  = flag.Int("workers", 0, "worker/core count override (0 = paper value)")
		peak     = flag.Float64("peak", 0, "peak load fraction override (0 = per-app default)")
		seed     = flag.Int64("seed", 1, "random seed")
		save     = flag.String("save", "", "after training, save the actor network to this file")
		policy   = flag.String("policy", "", "load a trained actor network instead of training")
		compare  = flag.Bool("compare", false, "run all four methods and print a comparison")
	)
	flag.Parse()

	cfg := deeppower.Config{
		App:           *appName,
		Method:        *method,
		TrainEpisodes: *episodes,
		Duration:      deeppower.Time(*duration * float64(deeppower.Second)),
		TracePeriod:   deeppower.Time(*period * float64(deeppower.Second)),
		Workers:       *workers,
		PeakLoad:      *peak,
		Seed:          *seed,
	}

	switch {
	case *compare:
		runCompare(cfg)
	case *policy != "":
		runLoaded(cfg, *policy)
	case *save != "":
		trainAndSave(cfg, *save)
	default:
		res, err := deeppower.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}
}

func runCompare(cfg deeppower.Config) {
	out, err := deeppower.Compare(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	base := out[deeppower.MethodBaseline]
	fmt.Printf("%-10s %10s %10s %12s %10s %8s\n",
		"method", "power(W)", "saving", "p99", "timeout%", "SLA met")
	for _, m := range []string{
		deeppower.MethodBaseline, deeppower.MethodRetail,
		deeppower.MethodGemini, deeppower.MethodDeepPower,
	} {
		r := out[m]
		saving := 1 - r.AvgPowerW/base.AvgPowerW
		fmt.Printf("%-10s %10.2f %9.1f%% %12v %10.3f %8v\n",
			m, r.AvgPowerW, saving*100, r.P99Latency, r.TimeoutRate*100, r.SLAMet)
	}
}

func runLoaded(cfg deeppower.Config, path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	pol, err := deeppower.LoadPolicy(f)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Policy = pol
	res, err := deeppower.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
}

func trainAndSave(cfg deeppower.Config, path string) {
	dp, err := deeppower.Train(cfg)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := deeppower.SavePolicy(dp, f); err != nil {
		log.Fatal(err)
	}
	cfg.Policy = dp
	res, err := deeppower.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	log.Printf("policy saved to %s", path)
}
