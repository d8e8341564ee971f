package data

import (
	"encoding/xml"
	"fmt"
	"io"

	"tpq/internal/pattern"
)

// ParseXML reads an XML document and returns it as a single-tree forest:
// every element becomes a node typed by its local element name; character
// data and attributes are ignored (the paper's model is purely structural).
func ParseXML(r io.Reader) (*Forest, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: parsing XML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewNode(pattern.Type(t.Name.Local))
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("data: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AddChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("data: empty XML document")
	}
	return NewForest(root), nil
}
