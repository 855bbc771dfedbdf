package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Model serialization. The paper's pipeline trains models centrally,
// exports them (to ONNX), and serves them from a low-latency inference
// system on the VM request path (§5). The JSON forms here play the ONNX
// role: a trained forest or GBM round-trips through an opaque byte
// stream, and the serving side rebuilds an identical predictor.

// jsonNode is the wire form of one tree node. Nodes are listed in
// preorder, so a split's left child is always the next node — the same
// layout Tree keeps in memory.
type jsonNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"` // index into the node array, -1 for none
	Right     int     `json:"r"`
	Leaf      bool    `json:"leaf"`
	LeafID    int     `json:"id,omitempty"`
	Value     float64 `json:"v"`
}

// jsonTree is the wire form of a Tree.
type jsonTree struct {
	Nodes    []jsonNode `json:"nodes"`
	Features int        `json:"features"`
	Leaves   int        `json:"leaves"`
}

func flattenTree(t *Tree) jsonTree {
	jt := jsonTree{Features: t.features, Leaves: len(t.leaves), Nodes: make([]jsonNode, len(t.right))}
	leafID := 0
	for i, r := range t.right {
		jn := jsonNode{Left: -1, Right: -1, Value: t.value[i]}
		if int(r) == i {
			jn.Leaf, jn.LeafID = true, leafID
			leafID++
		} else {
			jn.Feature, jn.Threshold = int(t.feature[i]), t.threshold[i]
			jn.Left, jn.Right = i+1, int(r)
		}
		jt.Nodes[i] = jn
	}
	return jt
}

// rebuildTree validates a wire tree and copies it into the flat form.
// The nodes must be an exact preorder encoding: every split's left child
// is the next node, its right child is the node right after the left
// subtree, and leaves carry ids 0, 1, ... in preorder, matching the
// declared leaf count. Anything else is an error, so a rebuilt tree
// always routes within bounds.
func rebuildTree(jt jsonTree) (*Tree, error) {
	n := len(jt.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("ml: empty tree")
	}
	var b treeBuf
	// pending holds the right children of the open splits, innermost
	// last, with their depths: after a leaf, preorder continues at the
	// innermost one.
	type openRight struct{ node, depth int }
	var pending []openRight
	depth := 0
	for i, jn := range jt.Nodes {
		if jn.Leaf {
			if jn.LeafID != len(b.leaves) {
				return nil, fmt.Errorf("ml: node %d: leaf id %d, want %d (ids run 0, 1, ... in preorder)",
					i, jn.LeafID, len(b.leaves))
			}
			b.leaf(jn.Value, depth)
			if i+1 < n {
				if len(pending) == 0 || pending[len(pending)-1].node != i+1 {
					return nil, fmt.Errorf("ml: node %d is not reachable in preorder", i+1)
				}
				depth = pending[len(pending)-1].depth
				pending = pending[:len(pending)-1]
			}
			continue
		}
		if jn.Left != i+1 {
			return nil, fmt.Errorf("ml: node %d: left child %d is not the next node", i, jn.Left)
		}
		if jn.Right <= i+1 || jn.Right >= n {
			return nil, fmt.Errorf("ml: node %d: right child %d out of range", i, jn.Right)
		}
		if jn.Feature < 0 || jn.Feature >= jt.Features || jn.Feature > math.MaxInt32 {
			return nil, fmt.Errorf("ml: node %d: feature %d out of range", i, jn.Feature)
		}
		b.split(jn.Feature, jn.Threshold)
		b.right[i] = int32(jn.Right)
		depth++
		pending = append(pending, openRight{node: jn.Right, depth: depth})
	}
	if len(pending) != 0 {
		return nil, fmt.Errorf("ml: tree truncated: right child %d never reached", pending[len(pending)-1].node)
	}
	if len(b.leaves) != jt.Leaves {
		return nil, fmt.Errorf("ml: tree has %d leaves, header says %d", len(b.leaves), jt.Leaves)
	}
	return b.tree(jt.Features), nil
}

// jsonForest is the wire form of a Forest.
type jsonForest struct {
	Kind  string     `json:"kind"`
	Trees []jsonTree `json:"trees"`
}

// ExportForest writes the forest to w.
func ExportForest(w io.Writer, f *Forest) error {
	jf := jsonForest{Kind: "forest"}
	for _, t := range f.trees {
		jf.Trees = append(jf.Trees, flattenTree(t))
	}
	return json.NewEncoder(w).Encode(jf)
}

// ImportForest reads a forest written by ExportForest.
func ImportForest(r io.Reader) (*Forest, error) {
	var jf jsonForest
	if err := json.NewDecoder(r).Decode(&jf); err != nil {
		return nil, fmt.Errorf("ml: decoding forest: %w", err)
	}
	if jf.Kind != "forest" {
		return nil, fmt.Errorf("ml: expected forest, got %q", jf.Kind)
	}
	if len(jf.Trees) == 0 {
		return nil, fmt.Errorf("ml: forest has no trees")
	}
	f := &Forest{}
	for _, jt := range jf.Trees {
		t, err := rebuildTree(jt)
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}

// jsonGBM is the wire form of a GBM.
type jsonGBM struct {
	Kind     string     `json:"kind"`
	Init     float64    `json:"init"`
	LR       float64    `json:"lr"`
	Quantile float64    `json:"quantile"`
	Trees    []jsonTree `json:"trees"`
}

// ExportGBM writes the model to w.
func ExportGBM(w io.Writer, m *GBM) error {
	jg := jsonGBM{Kind: "gbm", Init: m.init, LR: m.lr, Quantile: m.quantile}
	for _, t := range m.trees {
		jg.Trees = append(jg.Trees, flattenTree(t))
	}
	return json.NewEncoder(w).Encode(jg)
}

// ImportGBM reads a model written by ExportGBM.
func ImportGBM(r io.Reader) (*GBM, error) {
	var jg jsonGBM
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("ml: decoding gbm: %w", err)
	}
	if jg.Kind != "gbm" {
		return nil, fmt.Errorf("ml: expected gbm, got %q", jg.Kind)
	}
	m := &GBM{init: jg.Init, lr: jg.LR, quantile: jg.Quantile}
	for _, jt := range jg.Trees {
		t, err := rebuildTree(jt)
		if err != nil {
			return nil, err
		}
		m.trees = append(m.trees, t)
	}
	return m, nil
}
