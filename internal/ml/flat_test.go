package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"testing"

	"pond/internal/stats"
)

// predictionDigest hashes every tree's LeafID and Predict bits, then the
// ensemble output, over the query rows. ensemble is nil for a bare tree
// list.
func predictionDigest(trees []*Tree, ensemble func([]float64) float64, queries [][]float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, q := range queries {
		for _, t := range trees {
			put(uint64(t.LeafID(q)))
			put(math.Float64bits(t.Predict(q)))
		}
		if ensemble != nil {
			put(math.Float64bits(ensemble(q)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bytesDigest(p []byte) string {
	s := sha256.Sum256(p)
	return hex.EncodeToString(s[:])
}

// queryRows draws fresh rows (not the training set) so routing is
// exercised on unseen values.
func queryRows(n, features int, seed int64) [][]float64 {
	r := stats.NewRand(seed)
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, features)
		for j := range X[i] {
			X[i][j] = r.Float64()
		}
	}
	return X
}

// TestFlatTreeMatchesPointerTree pins fixed-seed forests (both growth
// strategies) and a quantile GBM to the leaf ids, predictions and export
// bytes the pointer-node tree produced before the flat preorder layout
// replaced it. Any change to split choice, leaf numbering, the
// comparison routing or the summation order moves a digest.
func TestFlatTreeMatchesPointerTree(t *testing.T) {
	queries := queryRows(300, 12, 77)

	Xc, yc, _ := synthClassification(400, 12, 41)
	sparse := DefaultForestConfig()
	sparse.NTrees = 12
	sparse.Seed = 5
	fs := FitForest(Xc, yc, sparse)

	dense := sparse
	dense.Tree.FeatureFrac = 0.8
	dense.NTrees = 6
	fd := FitForest(Xc, yc, dense)

	Xr, yr := synthRegression(500, 12, 42)
	gcfg := DefaultGBMConfig()
	gcfg.NTrees = 25
	gcfg.Seed = 9
	g := FitGBM(Xr, yr, gcfg)

	cases := []struct {
		name           string
		trees          []*Tree
		ensemble       func([]float64) float64
		export         func(*bytes.Buffer) error
		predict, bytes string
	}{
		{"sparse-forest", fs.trees, fs.PredictProb, func(b *bytes.Buffer) error { return ExportForest(b, fs) },
			"f12067dc2f4e56984ffb585bdc3dce7056cb7a7eec88df390786475b12c035b7",
			"a13efc76017d4ca5c3688121375b88804b1b0bf193f16aeb7e1fac14fa72da27"},
		{"dense-forest", fd.trees, fd.PredictProb, func(b *bytes.Buffer) error { return ExportForest(b, fd) },
			"bcdd2047549ab27f042f25326e60928e2707ddb99dbd2a6d23ec0c48f0ea9648",
			"3b6f69b16bef0af0f878b17152c019a46c7d7106593d17f4251a934f1eeda828"},
		{"gbm", g.trees, g.Predict, func(b *bytes.Buffer) error { return ExportGBM(b, g) },
			"2754c70ac376347e92b11111190dc5579cafe6f0348618b63ef9181ecd80d197",
			"5909791659e47ee2cbfe62930926dcfc733bb34d6c0bc3fbdf88fc7717ade065"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.export(&buf); err != nil {
			t.Fatal(err)
		}
		gotPred := predictionDigest(tc.trees, tc.ensemble, queries)
		gotBytes := bytesDigest(buf.Bytes())
		if gotPred != tc.predict {
			t.Errorf("%s: prediction digest %s, want %s", tc.name, gotPred, tc.predict)
		}
		if gotBytes != tc.bytes {
			t.Errorf("%s: export digest %s, want %s", tc.name, gotBytes, tc.bytes)
		}
	}
}

// TestImportRejectsMalformedTrees feeds wire trees that break the
// preorder contract; each must come back as an error, never a panic or
// a tree that routes out of bounds.
func TestImportRejectsMalformedTrees(t *testing.T) {
	leaf := func(id int) string {
		return `{"f":0,"t":0,"l":-1,"r":-1,"leaf":true,"id":` + strconv.Itoa(id) + `,"v":1}`
	}
	split := func(l, r int) string {
		return `{"f":0,"t":0.5,"l":` + strconv.Itoa(l) + `,"r":` + strconv.Itoa(r) + `,"leaf":false,"v":0}`
	}
	tree := func(leaves int, nodes ...string) string {
		return `{"kind":"forest","trees":[{"nodes":[` + strings.Join(nodes, ",") + `],"features":1,"leaves":` + strconv.Itoa(leaves) + `}]}`
	}
	valid := tree(2, split(1, 2), leaf(0), leaf(1))
	if f, err := ImportForest(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	} else if f.PredictProb([]float64{0.9}) != 1 {
		t.Fatal("valid tree mispredicts")
	}
	cases := map[string]string{
		"empty":              tree(0),
		"right-out-of-range": tree(2, split(1, 3), leaf(0), leaf(1)),
		"right-negative":     tree(2, split(1, -1), leaf(0), leaf(1)),
		"right-is-parent":    tree(2, split(1, 0), leaf(0), leaf(1)),
		"right-is-left":      tree(2, split(1, 1), leaf(0), leaf(1)),
		"left-not-next":      tree(2, split(2, 1), leaf(0), leaf(1)),
		"left-is-self":       tree(2, split(0, 2), leaf(0), leaf(1)),
		"right-inside-left":  tree(3, split(1, 2), split(2, 3), leaf(0), leaf(1), leaf(2)),
		"truncated":          tree(1, split(1, 2), leaf(0)),
		"trailing-node":      tree(3, split(1, 2), leaf(0), leaf(1), leaf(2)),
		"missing-leaf-id":    tree(3, split(1, 2), leaf(0), leaf(2)),
		"duplicate-leaf-id":  tree(2, split(1, 2), leaf(0), leaf(0)),
		"leaf-id-negative":   tree(2, split(1, 2), leaf(-1), leaf(1)),
		"leaf-id-too-big":    tree(2, split(1, 2), leaf(0), leaf(2)),
		"negative-leaves":    tree(-1, leaf(0)),
		"feature-negative":   tree(2, `{"f":-1,"t":0.5,"l":1,"r":2,"leaf":false}`, leaf(0), leaf(1)),
		"feature-too-big":    tree(2, `{"f":1,"t":0.5,"l":1,"r":2,"leaf":false}`, leaf(0), leaf(1)),
	}
	for name, js := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("import panicked: %v", p)
				}
			}()
			if _, err := ImportForest(strings.NewReader(js)); err == nil {
				t.Fatal("malformed tree accepted")
			}
			gbm := strings.Replace(js, `"kind":"forest"`, `"kind":"gbm","init":0,"lr":0.1,"quantile":0.5`, 1)
			if _, err := ImportGBM(strings.NewReader(gbm)); err == nil {
				t.Fatal("malformed gbm tree accepted")
			}
		})
	}
}
