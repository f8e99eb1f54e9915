// Command pqsim runs one quorum-system scenario and prints its metrics: the
// tables experiment.FlagTables renders, as `pqexp spot` does for each of its
// scenarios.
//
// Example:
//
//	pqsim -n 200 -adv random -lookup unique-path -speed 2 -seeds 3
package main

import (
	"fmt"
	"os"

	"probquorum/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqsim:", err)
		os.Exit(1)
	}
}

// run reads the scenario from args (experiment.ParseFlags), runs its seeds one
// after another and prints its tables.
func run(args []string) error {
	tables, err := experiment.FlagTables("pqsim", [][]string{args}, 1)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t)
	}
	return nil
}
