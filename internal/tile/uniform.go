package tile

// The element law of the generated test matrices: element (i, j) of a
// matrix is Uniform of a 64-bit key that counts up along a row, so a node
// materializes any tile on its own, and a row is one key and a counter.

// Uniform returns a value in [-1, 1) hashed from x: the splitmix64 mix of x,
// its top 53 bits scaled to [0, 2) and shifted down by 1. Every step is
// exact, so the vector fill reproduces it bit for bit.
func Uniform(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53)*2 - 1
}

// FillUniform sets dst[c] = Uniform(key + c) for every c, the key wrapping
// around 2⁶⁴.
func FillUniform(dst []float64, key uint64) { fillUniform(dst, key) }

// fillUniformGo is the plain-Go FillUniform.
func fillUniformGo(dst []float64, key uint64) {
	for c := range dst {
		dst[c] = Uniform(key + uint64(c))
	}
}
