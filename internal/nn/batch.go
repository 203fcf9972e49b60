// Batched forward primitives. The per-sample Forward/Backward passes in
// nn.go are the reference; the batch-matrix variants here run the value
// network's query tower and head when it scores (valuenet.Scorer): one call
// processes a whole batch of rows with all intermediate storage drawn from a
// reusable Arena, so a warmed-up arena makes the forward pass allocation-free.
//
// Every batched routine performs the same floating-point operations in the
// same order as its per-sample counterpart, so batched and sequential
// inference produce bit-identical results.
package nn

// Float is the element type of the batched containers: float64 for training
// and exact scoring, float32 for the packed serving kernels.
type Float interface{ float32 | float64 }

// Arena is a bump allocator for scratch buffers used by batched forward
// passes. Alloc hands out sub-slices of one backing array; Reset recycles the
// whole arena at once. After a warm-up call with the largest batch shape, no
// further heap allocations occur. An Arena is not safe for concurrent use;
// callers that share a network across goroutines keep one arena per goroutine
// (each valuenet.Scorer owns one).
type Arena[T Float] struct {
	buf  []T
	used int
	// grow accumulates overflow demand so the next Reset can right-size the
	// backing array without invalidating slices handed out this cycle.
	grow int
}

// Alloc returns a scratch slice of length n. The memory is NOT zeroed;
// callers must overwrite every element.
func (a *Arena[T]) Alloc(n int) []T {
	if a.used+n > len(a.buf) {
		// The backing array is full. Serve this request from a fresh
		// allocation (earlier slices stay valid) and remember the shortfall
		// so Reset grows the arena for the next cycle.
		a.grow += n
		return make([]T, n)
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// Reset recycles the arena. Slices returned by Alloc before the Reset must no
// longer be in use.
func (a *Arena[T]) Reset() {
	if a.grow > 0 {
		a.buf = make([]T, len(a.buf)+a.grow)
		a.grow = 0
	}
	a.used = 0
}

// LeakyInPlace applies the leaky rectifier over xs in place. Activation signs
// are data-dependent, so instead of branching per element each value is
// multiplied by 1 or alpha, selected by a flag the compiler materialises
// without a jump; v·1 is exact, so results are bit-identical to the branching
// form.
func LeakyInPlace[T Float](xs []T, alpha T) {
	scale := [2]T{1, alpha}
	for i, v := range xs {
		neg := 0
		if v < 0 {
			neg = 1
		}
		xs[i] = v * scale[neg]
	}
}

// ForwardBatch computes y = W·x + b for rows row-major input rows stored
// contiguously in xs (rows×In values) and returns rows×Out values allocated
// from the arena.
func (l *Linear) ForwardBatch(xs []float64, rows int, a *Arena[float64]) []float64 {
	if len(xs) != rows*l.In {
		panic("nn: Linear.ForwardBatch input size mismatch")
	}
	ys := a.Alloc(rows * l.Out)
	in := l.In
	for r := 0; r < rows; r++ {
		x := xs[r*in : (r+1)*in]
		y := ys[r*l.Out : (r+1)*l.Out]
		// Four output neurons per pass: four independent accumulator chains
		// hide floating-point add latency, and each input load is shared by
		// the four weight rows. Per-neuron operation order matches Forward
		// exactly, so results stay bit-identical.
		o := 0
		for ; o+4 <= l.Out; o += 4 {
			w0 := l.W.Value[o*in : o*in+in]
			w1 := l.W.Value[(o+1)*in : (o+1)*in+in]
			w2 := l.W.Value[(o+2)*in : (o+2)*in+in]
			w3 := l.W.Value[(o+3)*in : (o+3)*in+in]
			s0 := l.B.Value[o]
			s1 := l.B.Value[o+1]
			s2 := l.B.Value[o+2]
			s3 := l.B.Value[o+3]
			for i, xi := range x {
				s0 += w0[i] * xi
				s1 += w1[i] * xi
				s2 += w2[i] * xi
				s3 += w3[i] * xi
			}
			y[o] = s0
			y[o+1] = s1
			y[o+2] = s2
			y[o+3] = s3
		}
		for ; o < l.Out; o++ {
			sum := l.B.Value[o]
			row := l.W.Value[o*in : o*in+in]
			for i, xi := range x {
				sum += row[i] * xi
			}
			y[o] = sum
		}
	}
	return ys
}

// ForwardBatch applies the activation elementwise over a flattened batch.
func (r *LeakyReLU) ForwardBatch(xs []float64, a *Arena[float64]) []float64 {
	ys := a.Alloc(len(xs))
	for i, v := range xs {
		if v >= 0 {
			ys[i] = v
		} else {
			ys[i] = r.Alpha * v
		}
	}
	return ys
}

// ForwardBatch normalises each of the rows rows of xs independently (xs holds
// rows×Dim values row-major).
func (ln *LayerNorm) ForwardBatch(xs []float64, rows int, a *Arena[float64]) []float64 {
	if len(xs) != rows*ln.Dim {
		panic("nn: LayerNorm.ForwardBatch input size mismatch")
	}
	ys := a.Alloc(len(xs))
	for r := 0; r < rows; r++ {
		x := xs[r*ln.Dim : (r+1)*ln.Dim]
		y := ys[r*ln.Dim : (r+1)*ln.Dim]
		mean, std := meanStd(x, ln.Eps)
		for i, v := range x {
			y[i] = ln.Gamma.Value[i]*(v-mean)/std + ln.Beta.Value[i]
		}
	}
	return ys
}

// ForwardBatch runs the MLP over a batch of rows input rows (inference only;
// no tape is recorded). xs holds rows×inputDim values row-major; the result
// holds rows×outputDim values allocated from the arena.
func (m *MLP) ForwardBatch(xs []float64, rows int, a *Arena[float64]) []float64 {
	cur := xs
	last := len(m.Linears) - 1
	for i, lin := range m.Linears {
		pre := lin.ForwardBatch(cur, rows, a)
		if i == last {
			cur = pre
			continue
		}
		act := m.Act.ForwardBatch(pre, a)
		if m.Norms[i] != nil {
			cur = m.Norms[i].ForwardBatch(act, rows, a)
		} else {
			cur = act
		}
	}
	return cur
}
