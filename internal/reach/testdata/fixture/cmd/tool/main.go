// Command tool is a program: every declaration in it is a root.
package main

import (
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
}

// unused is referenced by nothing, but a program's declarations are roots.
func unused() { lib.OnlyFromUnusedMain() }
