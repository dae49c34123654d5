package hierfair

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/model"
)

// savedModel is the gob wire format of a trained classifier.
type savedModel struct {
	Kind             ModelKind
	InputDim         int
	NumClasses       int
	Hidden1, Hidden2 int
	W                []float64
}

// Classifier is a trained, self-contained model restored by LoadModel
// (or extracted from a Report); it carries its own parameters and can
// classify feature vectors.
type Classifier struct {
	kind             ModelKind
	hidden1, hidden2 int
	mdl              model.Model
	w                []float64
}

// Predict returns the argmax class for x.
func (c *Classifier) Predict(x []float64) int { return c.mdl.Predict(c.w, x) }

// InputDim returns the expected feature dimension.
func (c *Classifier) InputDim() int { return c.mdl.InputDim() }

// NumClasses returns the number of classes.
func (c *Classifier) NumClasses() int { return c.mdl.NumClasses() }

// Accuracy evaluates the classifier on a labelled set.
func (c *Classifier) Accuracy(xs [][]float64, ys []int) float64 {
	return model.Accuracy(c.mdl, c.w, xs, ys)
}

// Classifier extracts the trained model from a Report as a standalone
// Classifier (copying the parameters).
func (r *Report) Classifier() *Classifier {
	c := &Classifier{kind: ModelLogReg, mdl: r.mdl.Clone(), w: append([]float64(nil), r.w...)}
	if m, ok := r.mdl.(*model.MLP); ok {
		c.kind = ModelMLP
		c.hidden1, c.hidden2 = m.HiddenSizes()
	}
	return c
}

// SaveModel writes the trained global model to w in a self-describing
// binary format (encoding/gob), so a model trained in one process can be
// served by another.
func (r *Report) SaveModel(w io.Writer) error {
	sm := savedModel{InputDim: r.mdl.InputDim(), NumClasses: r.mdl.NumClasses(), W: r.w}
	switch m := r.mdl.(type) {
	case *model.Linear:
		sm.Kind = ModelLogReg
	case *model.MLP:
		sm.Kind = ModelMLP
		sm.Hidden1, sm.Hidden2 = m.HiddenSizes()
	default:
		return fmt.Errorf("hierfair: cannot serialize model type %T", r.mdl)
	}
	return gob.NewEncoder(w).Encode(sm)
}

// LoadModel restores a classifier written by SaveModel.
func LoadModel(r io.Reader) (*Classifier, error) {
	var sm savedModel
	if err := gob.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("hierfair: decode model: %w", err)
	}
	var mdl model.Model
	switch sm.Kind {
	case ModelLogReg:
		mdl = model.NewLinear(sm.InputDim, sm.NumClasses)
	case ModelMLP:
		mdl = model.NewMLP(sm.InputDim, sm.Hidden1, sm.Hidden2, sm.NumClasses)
	default:
		return nil, fmt.Errorf("hierfair: unknown saved model kind %q", sm.Kind)
	}
	if len(sm.W) != mdl.Dim() {
		return nil, fmt.Errorf("hierfair: saved parameters have %d values, model wants %d", len(sm.W), mdl.Dim())
	}
	return &Classifier{kind: sm.Kind, hidden1: sm.Hidden1, hidden2: sm.Hidden2, mdl: mdl, w: sm.W}, nil
}
