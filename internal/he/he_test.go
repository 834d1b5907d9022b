package he

import (
	"math/big"
	"testing"
	"testing/quick"

	"fedwcm/internal/xrand"
)

// testKey generates a small key once; Paillier keygen at test sizes is
// cheap but not free.
var testKey *PrivateKey

func getKey(t *testing.T) *PrivateKey {
	t.Helper()
	if testKey == nil {
		k, err := GenerateKeys(256)
		if err != nil {
			t.Fatal(err)
		}
		testKey = k
	}
	return testKey
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := getKey(t)
	for _, m := range []int64{0, 1, 42, 1 << 30} {
		ct, err := sk.PublicKey.Encrypt(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got := sk.Decrypt(ct)
		if got.Int64() != m {
			t.Fatalf("roundtrip %d -> %d", m, got.Int64())
		}
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	sk := getKey(t)
	if _, err := sk.PublicKey.Encrypt(big.NewInt(-1)); err == nil {
		t.Fatal("negative plaintext should be rejected")
	}
	if _, err := sk.PublicKey.Encrypt(new(big.Int).Set(sk.N)); err == nil {
		t.Fatal("plaintext ≥ n should be rejected")
	}
}

func TestEncryptionIsRandomised(t *testing.T) {
	sk := getKey(t)
	m := big.NewInt(7)
	a, _ := sk.PublicKey.Encrypt(m)
	b, _ := sk.PublicKey.Encrypt(m)
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions of the same plaintext should differ (semantic security)")
	}
}

func TestAdditiveHomomorphismProperty(t *testing.T) {
	sk := getKey(t)
	f := func(aRaw, bRaw uint32) bool {
		a := big.NewInt(int64(aRaw))
		b := big.NewInt(int64(bRaw))
		ca, err := sk.PublicKey.Encrypt(a)
		if err != nil {
			return false
		}
		cb, err := sk.PublicKey.Encrypt(b)
		if err != nil {
			return false
		}
		sum := sk.Decrypt(sk.PublicKey.Add(ca, cb))
		want := new(big.Int).Add(a, b)
		return sum.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextSizeConstant(t *testing.T) {
	sk := getKey(t)
	size := sk.PublicKey.CiphertextSize()
	if size < 256/8*2-2 || size > 256/8*2+2 {
		t.Fatalf("ciphertext size %dB for 256-bit key, want ~64B", size)
	}
	ct, _ := sk.PublicKey.Encrypt(big.NewInt(3))
	if n := len(ct.C.Bytes()); n > size {
		t.Fatalf("actual ciphertext %dB exceeds reported max %dB", n, size)
	}
}

func TestGenerateKeysRejectsTiny(t *testing.T) {
	if _, err := GenerateKeys(32); err == nil {
		t.Fatal("tiny modulus should be rejected")
	}
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	packer := NewPacker(256, 16)
	r := xrand.New(5)
	f := func(lenRaw uint8) bool {
		n := int(lenRaw%40) + 1
		vec := make([]int, n)
		for i := range vec {
			vec[i] = r.Intn(1 << 15)
		}
		packed, err := packer.Pack(vec)
		if err != nil {
			return false
		}
		if len(packed) != packer.PlaintextsNeeded(n) {
			return false
		}
		got := packer.Unpack(packed, n)
		for i := range vec {
			if got[i] != vec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPackRejectsOversizedValues(t *testing.T) {
	packer := NewPacker(256, 8)
	if _, err := packer.Pack([]int{300}); err == nil {
		t.Fatal("value exceeding slot width must be rejected")
	}
	if _, err := packer.Pack([]int{-1}); err == nil {
		t.Fatal("negative value must be rejected")
	}
}

func TestPackedAdditionMatchesVectorSum(t *testing.T) {
	// The core protocol property: adding packed ciphertexts adds slots.
	sk := getKey(t)
	packer := NewPacker(256, 16)
	a := []int{3, 5, 250, 0, 17}
	b := []int{10, 20, 30, 40, 50}
	pa, _ := packer.Pack(a)
	pb, _ := packer.Pack(b)
	var sums []*big.Int
	for i := range pa {
		ca, _ := sk.PublicKey.Encrypt(pa[i])
		cb, _ := sk.PublicKey.Encrypt(pb[i])
		sums = append(sums, sk.Decrypt(sk.PublicKey.Add(ca, cb)))
	}
	got := packer.Unpack(sums, len(a))
	for i := range a {
		if got[i] != a[i]+b[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], a[i]+b[i])
		}
	}
}

func TestSumBudget(t *testing.T) {
	p := NewPacker(256, 8)
	if !p.SumBudgetOK(10, 10) { // 100 < 256
		t.Fatal("100 fits in 8-bit slot")
	}
	if p.SumBudgetOK(100, 10) { // 1000 >= 256
		t.Fatal("1000 must overflow an 8-bit slot")
	}
}

func TestProtocolEndToEnd(t *testing.T) {
	r := xrand.New(9)
	clients := 12
	classes := 10
	counts := make([][]int, clients)
	want := make([]int, classes)
	for k := range counts {
		counts[k] = make([]int, classes)
		for c := range counts[k] {
			counts[k][c] = r.Intn(200)
			want[c] += counts[k][c]
		}
	}
	p := Protocol{KeyBits: 256, SlotBits: 24}
	got, report, err := p.Run(counts)
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("class %d: protocol sum %d, plaintext sum %d", c, got[c], want[c])
		}
	}
	if report.Clients != clients || report.Classes != classes {
		t.Fatalf("report metadata wrong: %+v", report)
	}
	if report.CiphertextBytes <= 0 || report.PlaintextBytes <= 0 || report.TotalUploadBytes <= 0 {
		t.Fatalf("report sizes not positive: %+v", report)
	}
	if report.String() == "" {
		t.Fatal("report should render")
	}
}

func TestProtocolRejectsBadInput(t *testing.T) {
	p := Protocol{KeyBits: 256, SlotBits: 16}
	if _, _, err := p.Run(nil); err == nil {
		t.Fatal("empty client list must error")
	}
	if _, _, err := p.Run([][]int{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged counts must error")
	}
}

func TestProtocolOverflowGuard(t *testing.T) {
	p := Protocol{KeyBits: 256, SlotBits: 8}
	counts := [][]int{{200}, {200}} // sum 400 > 255
	if _, _, err := p.Run(counts); err == nil {
		t.Fatal("protocol must refuse configurations that can overflow slots")
	}
}

// TestTable6Shape reproduces Appendix C's observation: plaintext size grows
// linearly with the class count while ciphertext size stays (near-)constant,
// dominated by the fixed encryption parameters.
func TestTable6Shape(t *testing.T) {
	p := Protocol{KeyBits: 256, SlotBits: 16}
	prevCipher := 0
	for _, classes := range []int{4, 8, 12} {
		counts := [][]int{make([]int, classes)}
		for c := range counts[0] {
			counts[0][c] = c + 1
		}
		_, report, err := p.Run(counts)
		if err != nil {
			t.Fatal(err)
		}
		if report.PlaintextBytes != PlaintextSize(classes) {
			t.Fatalf("plaintext size %d, want %d", report.PlaintextBytes, PlaintextSize(classes))
		}
		if prevCipher != 0 && report.CiphertextBytes > prevCipher*3 {
			t.Fatalf("ciphertext size should grow sublinearly: %d after %d", report.CiphertextBytes, prevCipher)
		}
		prevCipher = report.CiphertextBytes
	}
}
