// Package quant implements uplink compression of model vectors:
// unbiased stochastic uniform quantization — the extension of
// Hier-Local-QSGD (Liu et al., IEEE TWC 2023 [22]) that the paper cites
// as the quantized hierarchical counterpart of its setting — and top-k
// sparsification with error feedback. Engines and the A3 ablation
// select a regime with Config and ship vectors as Packed (compress.go);
// Uniform in reference_test.go is the scalar reference the packed
// kernels are tested against.
package quant

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
