// Package gentree implements the generalization tree of Figure 1 in the
// ANMAT paper: a fixed lattice over an alphabet in which each leaf is a
// concrete character and each internal node is a character class that
// generalizes its children.
//
// The tree has three levels above the leaves:
//
//	All [\A]
//	├── Upper  [\LU]  A–Z
//	├── Lower  [\LL]  a–z
//	├── Digit  [\D]   0–9
//	└── Symbol [\S]   everything else (punctuation, space, …)
//
// The empty string ε is represented at the pattern layer, not here.
package gentree

import "fmt"

// Class identifies a node in the generalization tree. Leaf characters are
// not Classes; they generalize to one of the four level-1 classes, which in
// turn generalize to All.
type Class uint8

// The character classes of the generalization tree, ordered so that more
// specific classes have smaller values (useful for deterministic output).
const (
	// Upper is the class of upper-case ASCII letters, written \LU.
	Upper Class = iota
	// Lower is the class of lower-case ASCII letters, written \LL.
	Lower
	// Digit is the class of decimal digits, written \D.
	Digit
	// Symbol is the class of every other character, written \S.
	Symbol
	// All is the root of the tree and matches any character, written \A.
	All
)

// String returns the pattern-language spelling of the class.
func (c Class) String() string {
	switch c {
	case Upper:
		return `\LU`
	case Lower:
		return `\LL`
	case Digit:
		return `\D`
	case Symbol:
		return `\S`
	case All:
		return `\A`
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// ClassOf returns the level-1 class of a character: the parent of the leaf
// r in the generalization tree.
func ClassOf(r rune) Class {
	switch {
	case r >= 'A' && r <= 'Z':
		return Upper
	case r >= 'a' && r <= 'z':
		return Lower
	case r >= '0' && r <= '9':
		return Digit
	default:
		return Symbol
	}
}

// Matches reports whether the character r belongs to class c.
func (c Class) Matches(r rune) bool {
	if c == All {
		return true
	}
	return ClassOf(r) == c
}

// LCG returns the least common generalization of two classes: the lowest
// node in the tree that contains both.
func LCG(a, b Class) Class {
	if a == b {
		return a
	}
	return All
}
