package tensor

// Matrix is a dense row-major matrix backed by a flat slice, so model
// parameters can be viewed as one contiguous vector for aggregation and
// serialization.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFrom wraps an existing flat buffer as a rows x cols matrix
// without copying. It panics if the buffer has the wrong length.
func MatrixFrom(data []float64, rows, cols int) *Matrix {
	if len(data) != rows*cols {
		panic("tensor: MatrixFrom buffer length mismatch")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Gemv computes y = alpha*A*x + beta*y for a row-major A.
func Gemv(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	checkLen(len(x), a.Cols)
	checkLen(len(y), a.Rows)
	for i := 0; i < a.Rows; i++ {
		y[i] = alpha*Dot(a.Row(i), x) + beta*y[i]
	}
}

// Reshape resizes m to rows×cols, reusing (and growing when needed) the
// backing buffer. The contents after a growing Reshape are unspecified;
// callers overwrite them. It is the grow-only primitive behind the
// models' batch-sized activation scratch.
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]float64, need)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
}
