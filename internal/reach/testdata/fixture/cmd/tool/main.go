// Command tool is a program: every declaration in it is a root.
package main

import (
	"flag"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Warn)

	c := &lib.Counter{}
	inc := c.Inc // a method value
	inc()

	lib.NewHooks().OnDone()
	fmt.Println(lib.Map([]int{1, 2}, func(i int) string { return fmt.Sprint(i) }))

	var cfg lib.Config
	flag.IntVar(&cfg.Flagged, "flagged", 0, "an option bound to a flag")
	flag.Parse()
	cfg.Inner.X = 2
	fmt.Println(lib.Size(cfg), lib.Size(lib.Derive(lib.SourceConfig{Hot: 1})))
}

// unused is referenced by nothing, but a program's declarations are roots.
func unused() { lib.OnlyFromUnusedMain() }
