package quorum_test

import (
	"fmt"

	"repro/internal/quorum"
)

// Example shows every protocol threshold for the classic n = 3f+1 system.
func Example() {
	spec := quorum.MustNew(7, 2)
	fmt.Println("quorum (n-f):   ", spec.Quorum())
	fmt.Println("decide (2f+1):  ", spec.Decide())
	fmt.Println("adopt (f+1):    ", spec.Adopt())
	fmt.Println("supermajority:  ", spec.SuperMajority())
	fmt.Println("echo threshold: ", spec.Echo())
	fmt.Println("optimal:        ", spec.N() > 3*spec.F())
	// Output:
	// quorum (n-f):    5
	// decide (2f+1):   5
	// adopt (f+1):     3
	// supermajority:   4
	// echo threshold:  5
	// optimal:         true
}

// ExampleMaxByzantine shows the paper's resilience bound.
func ExampleMaxByzantine() {
	for _, n := range []int{4, 7, 10, 100} {
		fmt.Printf("n=%d tolerates f=%d\n", n, quorum.MaxByzantine(n))
	}
	// Output:
	// n=4 tolerates f=1
	// n=7 tolerates f=2
	// n=10 tolerates f=3
	// n=100 tolerates f=33
}
