package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Used(), s.Area(), lib.ArchHook(), lib.Stamp(1), lib.Blob{})
}
