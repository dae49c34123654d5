// Package lib holds one declaration per case the analyzer must judge.
package lib

import "encoding"

// Used is called from main.
func Used() int { return helper() }

func helper() int { return 1 }

// deadHead starts a chain nothing reaches.
func deadHead() int { return deadTail() }

func deadTail() int { return 2 }

// OwnTestOnly is named only by this package's tests.
func OwnTestOnly() int { return 3 }

// OtherTestOnly is named only by another package's tests.
func OtherTestOnly() int { return 4 }

// Shape is called through, but only for its area.
type Shape interface {
	Area() int
	Perimeter() int
}

// Square implements Shape.
type Square struct{ Side int }

// Area is reached by dispatch through Shape.Area.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter implements a method nobody calls.
func (s Square) Perimeter() int { return 4 * s.Side }

// Stamp is printed; fmt calls its String.
type Stamp int

func (s Stamp) String() string { return "stamp" }

// Blob satisfies encoding.BinaryMarshaler and nothing calls it directly.
type Blob struct{}

var _ encoding.BinaryMarshaler = Blob{}

func (Blob) MarshalBinary() ([]byte, error) { return nil, nil }

// archShared is named only from the !amd64 file.
func archShared() int { return 5 }
