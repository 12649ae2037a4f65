package main

import (
	"fmt"
	"strings"
)

// Example round-trips the filter through a ROM image and runs both
// builds.
func Example() {
	var out strings.Builder
	if err := run(&out, nil); err != nil {
		fmt.Println(err)
	}
	// An Output comment cannot end a line in spaces; the taps line does.
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// ROM image: 465 bytes for 22 long instructions + data tables
	// original build: 1893 cycles; booted from image: 1893 cycles
	// adapted filter taps (image run): -0.0039 0.0066 0.0128 0.0015 0.0000 0.0000 0.0000 0.0000
	// round trip exact: the image is the program.
}
