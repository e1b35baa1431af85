// Package driver is the offline package loader behind sprwl-model: it
// parses and type-checks module packages with go/parser and go/types
// (standard-library imports are type-checked from GOROOT source), so the
// model extractor in package interleave can read the //sprwl:model
// functions without any dependency outside the standard library.
package driver

import (
	"go/ast"
	"strings"
)

// HasDirective reports whether a declaration's doc comment group contains
// the //sprwl:<directive> marker line (e.g. HasDirective(fd.Doc,
// "model")). Like //go: directives, the marker must be its own comment
// line attached to the declaration.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	marker := "//sprwl:" + directive
	for _, c := range doc.List {
		if c.Text == marker || strings.HasPrefix(c.Text, marker+" ") {
			return true
		}
	}
	return false
}
