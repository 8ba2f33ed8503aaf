//go:build !budget

package budget

// Enabled reports whether this build counts.
const Enabled = false

// Add counts n more of c; this build counts nothing.
func Add(c Counter, n int) {}

// Read returns the count of c; this build counts nothing.
func Read(c Counter) int64 { return 0 }

// Reset zeroes every counter; this build has none.
func Reset() {}
