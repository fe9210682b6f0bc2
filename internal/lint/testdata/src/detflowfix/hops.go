package detflowfix

import (
	"encoding/json"
	"fmt"
	"io"
)

// The hop cases: map-ordered data forwarded through one and two more
// helpers, and through recursion.

// relayValues returns valuesOf's result directly: the `return f(...)`
// shape.
func relayValues(m map[string]float64) []float64 { return valuesOf(m) }

// relayValues2 forwards through a local.
func relayValues2(m map[string]float64) []float64 {
	vs := relayValues(m)
	return vs
}

// badSumTwoHops accumulates over data tainted two calls down.
func badSumTwoHops(m map[string]float64) float64 {
	vs := relayValues(m)
	total := 0.0
	for _, v := range vs {
		total += v // want "float accumulation over vs, which was built in map-iteration order"
	}
	return total
}

// badEmitThreeHops writes data tainted three calls down to the wire.
func badEmitThreeHops(w io.Writer, m map[string]float64) {
	vs := relayValues2(m)
	fmt.Fprintln(w, vs) // want "vs is in map-iteration order and reaches fmt.Fprintln"
}

// keysOdd and keysEven call each other; keysEven returns joinKeys'
// result at the bottom. keysOdd comes first, so its summary needs a
// second pass over the pair.
func keysOdd(m map[string]int, n int) string { return keysEven(m, n-1) }

func keysEven(m map[string]int, n int) string {
	if n == 0 {
		return joinKeys(m)
	}
	return keysOdd(m, n-1)
}

// badMarshalMutualRecursion serializes data tainted through the pair.
func badMarshalMutualRecursion(m map[string]int) ([]byte, error) {
	s := keysOdd(m, 3)
	return json.Marshal(s) // want "s is in map-iteration order and reaches json.Marshal"
}

// keysAfter calls itself and returns joinKeys' result at the bottom.
func keysAfter(m map[string]int, n int) string {
	if n > 0 {
		return keysAfter(m, n-1)
	}
	return joinKeys(m)
}

// badEmitSelfRecursion writes data tainted through the self-recursive
// helper.
func badEmitSelfRecursion(w io.Writer, m map[string]int) {
	s := keysAfter(m, 2)
	fmt.Fprint(w, s) // want "s is in map-iteration order and reaches fmt.Fprint"
}

// countKeys recurses without returning map-ordered data: clean.
func countKeys(m map[string]int, n int) int {
	if n == 0 {
		return len(m)
	}
	return countKeys(m, n-1)
}

// okCountRecursion emits a count, which has no order.
func okCountRecursion(w io.Writer, m map[string]int) {
	fmt.Fprint(w, countKeys(m, 2))
}
