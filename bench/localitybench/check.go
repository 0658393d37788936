package main

import (
	"fmt"
	"reflect"
)

// checker is the correctness gate. Every op has a key naming its input
// and configuration; the first output seen for a key is kept and every
// later output of that key must equal it. Reference comparisons run once
// per key after the timed phase. Each op whose output is wrong counts as
// one failure.
type checker struct {
	first  map[string]any
	ops    map[string]int
	failed map[string]int
	errs   []string
}

func newChecker() *checker {
	return &checker{first: map[string]any{}, ops: map[string]int{}, failed: map[string]int{}}
}

// maxErrs bounds the failure messages a run keeps.
const maxErrs = 10

// observe records one op's output. err, when non-nil, is the op's own
// failure (an invalid permutation, a wrong SpMV value, a refused
// request); otherwise out must equal the key's first output.
func (c *checker) observe(key string, out any, err error) {
	c.ops[key]++
	if err != nil {
		c.fail(key, 1, "%s: %v", key, err)
		return
	}
	want, seen := c.first[key]
	if !seen {
		c.first[key] = out
		return
	}
	if !reflect.DeepEqual(want, out) {
		c.fail(key, 1, "%s: output differs from the first pass", key)
	}
}

// verify compares key's first output with want, the output of an
// independent reference. A mismatch fails every op of the key.
func (c *checker) verify(key string, want any) {
	got, seen := c.first[key]
	if !seen {
		return
	}
	if !reflect.DeepEqual(got, want) {
		c.fail(key, c.ops[key], "%s: output differs from the reference", key)
	}
}

// fail counts n more failed ops of key, never more than key has run.
func (c *checker) fail(key string, n int, format string, args ...any) {
	c.failed[key] = min(c.failed[key]+n, max(c.ops[key], 1))
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// attempted and failedOps total the ops run and the ops that failed.
func (c *checker) attempted() int { return sum(c.ops) }
func (c *checker) failedOps() int { return sum(c.failed) }

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
