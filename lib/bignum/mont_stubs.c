/* Montgomery modular exponentiation over 64-bit limbs, the kernel
   under [Nat.Mont.mod_pow].

   OCaml has no 64x64->128-bit multiply, so [Nat] keeps 26-bit limbs;
   this stub converts its operands to 64-bit limbs on entry, runs the
   whole sliding-window exponentiation with [unsigned __int128]
   products (GCC or Clang on a 64-bit target), and writes the result
   back as 26-bit limbs into an array the caller allocated.

   Every buffer lives on this call's stack, sized by [Nat.Mont.ctx]'s
   512-limb limit (13,312 bits = 208 64-bit limbs): about 37 KiB,
   most of it the 16-entry window table.  The kernel keeps no global state and allocates
   nothing, so it is [@@noalloc] and worker domains may call it
   concurrently. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/mlvalues.h>

typedef unsigned __int128 u128;

#define NAT_LIMB_BITS 26
#define NAT_LIMB_MASK ((1UL << NAT_LIMB_BITS) - 1)
#define MAX_LIMBS 208 /* 512 26-bit limbs */
#define MAX_TABLE 16 /* odd powers at the widest window, 5 bits */

/* The first [k] 64-bit limbs of the Nat [a] (26-bit limbs, least
   significant first); limbs of [a] beyond them are dropped. */
static void load(value a, uint64_t *r, int k)
{
  mlsize_t n = Wosize_val(a);
  memset(r, 0, (size_t)k * sizeof(uint64_t));
  for (mlsize_t i = 0; i < n; i++) {
    uint64_t limb = (uint64_t)Long_val(Field(a, i));
    size_t w = i * NAT_LIMB_BITS / 64;
    unsigned s = i * NAT_LIMB_BITS % 64;
    if (w >= (size_t)k) break;
    r[w] |= limb << s;
    if (s + NAT_LIMB_BITS > 64 && w + 1 < (size_t)k) r[w + 1] |= limb >> (64 - s);
  }
}

/* [out] (26-bit limbs, every slot written) := the k-limb value [a]. */
static void store(const uint64_t *a, int k, value out)
{
  mlsize_t n = Wosize_val(out);
  for (mlsize_t i = 0; i < n; i++) {
    size_t w = i * NAT_LIMB_BITS / 64;
    unsigned s = i * NAT_LIMB_BITS % 64;
    uint64_t v = w < (size_t)k ? a[w] >> s : 0;
    if (s + NAT_LIMB_BITS > 64 && w + 1 < (size_t)k) v |= a[w + 1] << (64 - s);
    Field(out, i) = Val_long(v & NAT_LIMB_MASK);
  }
}

/* -m0^-1 mod 2^64 by Newton iteration: an odd m0 is its own inverse
   mod 8, and each step doubles the number of correct low bits. */
static uint64_t neg_inv(uint64_t m0)
{
  uint64_t x = m0;
  for (int i = 0; i < 5; i++) x *= 2 - m0 * x;
  return -x;
}

/* r := a*b*R^-1 mod m, R = 2^(64k), for a, b < m (CIOS: one
   multiply-and-reduce pass per limb of b).  The sum before the final
   subtraction is below 2m, so one conditional subtraction brings it
   below m.  [r] may alias [a] or [b]: it is written only at the end. */
static void mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
                     const uint64_t *m, uint64_t n0, int k)
{
  uint64_t t[MAX_LIMBS + 2];
  memset(t, 0, (size_t)(k + 2) * sizeof(uint64_t));
  for (int i = 0; i < k; i++) {
    uint64_t c = 0;
    for (int j = 0; j < k; j++) {
      u128 p = (u128)a[j] * b[i] + t[j] + c;
      t[j] = (uint64_t)p;
      c = (uint64_t)(p >> 64);
    }
    u128 s = (u128)t[k] + c;
    t[k] = (uint64_t)s;
    t[k + 1] = (uint64_t)(s >> 64);
    uint64_t u = t[0] * n0;
    c = (uint64_t)(((u128)u * m[0] + t[0]) >> 64);
    for (int j = 1; j < k; j++) {
      u128 p = (u128)u * m[j] + t[j] + c;
      t[j - 1] = (uint64_t)p;
      c = (uint64_t)(p >> 64);
    }
    s = (u128)t[k] + c;
    t[k - 1] = (uint64_t)s;
    t[k] = t[k + 1] + (uint64_t)(s >> 64);
  }
  uint64_t d[MAX_LIMBS], borrow = 0;
  for (int j = 0; j < k; j++) {
    u128 x = (u128)t[j] - m[j] - borrow;
    d[j] = (uint64_t)x;
    borrow = (uint64_t)(x >> 64) & 1;
  }
  memcpy(r, t[k] || !borrow ? d : t, (size_t)k * sizeof(uint64_t));
}

static int window_bits(long nbits)
{
  return nbits <= 24 ? 2 : nbits <= 160 ? 3 : nbits <= 768 ? 4 : 5;
}

static int exp_bit(value e, long i)
{
  return (Long_val(Field(e, i / NAT_LIMB_BITS)) >> (i % NAT_LIMB_BITS)) & 1;
}

/* The widest window [*lo, i] of at most [w] bits that ends on a set
   bit; bit i is set.  Returns the window's (odd) value. */
static int window(value e, long i, int w, long *lo)
{
  long l = i - w + 1 < 0 ? 0 : i - w + 1;
  while (!exp_bit(e, l)) l++;
  int v = 0;
  for (long j = i; j >= l; j--) v = (v << 1) | exp_bit(e, j);
  *lo = l;
  return v;
}

/* out := b^e mod m by sliding-window exponentiation in the Montgomery
   domain: one squaring per exponent bit plus one multiply per (odd)
   window, from a table of the odd powers b^1, b^3, ... that the
   exponent's windows use.  [m] is odd, > 1 and at most 512 26-bit
   limbs; [r2] is R^2 mod m; [b] < m; [out] has as many limbs as [m]. */
value bignum_mont_pow(value vm, value vr2, value vb, value ve, value out)
{
  mlsize_t nm = Wosize_val(vm), ne = Wosize_val(ve);
  long mbits = (long)(nm - 1) * NAT_LIMB_BITS;
  for (long top = Long_val(Field(vm, nm - 1)); top; top >>= 1) mbits++;
  if ((mbits + 63) / 64 > MAX_LIMBS) abort(); /* [Nat.Mont.ctx] rejects wider moduli */
  int k = (int)((mbits + 63) / 64);

  uint64_t m[MAX_LIMBS], acc[MAX_LIMBS], table[MAX_TABLE][MAX_LIMBS];
  load(vm, m, k);
  long nbits = 0;
  if (ne > 0) {
    nbits = (long)(ne - 1) * NAT_LIMB_BITS;
    for (long top = Long_val(Field(ve, ne - 1)); top; top >>= 1) nbits++;
  }
  if (nbits == 0) { /* b^0 = 1, and m > 1 */
    memset(acc, 0, (size_t)k * sizeof(uint64_t));
    acc[0] = 1;
    store(acc, k, out);
    return Val_unit;
  }
  uint64_t n0 = neg_inv(m[0]);
  int w = window_bits(nbits);

  /* Only the odd powers up to the exponent's largest window. */
  int entries = 1;
  for (long i = nbits - 1, lo; i >= 0; i--)
    if (exp_bit(ve, i)) {
      int v = window(ve, i, w, &lo);
      if (v / 2 + 1 > entries) entries = v / 2 + 1;
      i = lo;
    }

  uint64_t r2[MAX_LIMBS];
  load(vr2, r2, k);
  load(vb, acc, k);
  mont_mul(table[0], acc, r2, m, n0, k);
  if (entries > 1) {
    uint64_t g2[MAX_LIMBS];
    mont_mul(g2, table[0], table[0], m, n0, k);
    for (int i = 1; i < entries; i++) mont_mul(table[i], table[i - 1], g2, m, n0, k);
  }

  /* The first window starts at the top bit, where the accumulator is
     still 1: it takes the window's power without squaring 1. */
  long lo;
  int v = window(ve, nbits - 1, w, &lo);
  memcpy(acc, table[v / 2], (size_t)k * sizeof(uint64_t));
  for (long i = lo - 1; i >= 0;) {
    if (!exp_bit(ve, i)) {
      mont_mul(acc, acc, acc, m, n0, k);
      i--;
    } else {
      v = window(ve, i, w, &lo);
      for (long j = lo; j <= i; j++) mont_mul(acc, acc, acc, m, n0, k);
      mont_mul(acc, acc, table[v / 2], m, n0, k);
      i = lo - 1;
    }
  }

  /* Leave the Montgomery domain: acc * 1 * R^-1. */
  uint64_t one[MAX_LIMBS];
  memset(one, 0, (size_t)k * sizeof(uint64_t));
  one[0] = 1;
  mont_mul(acc, acc, one, m, n0, k);
  store(acc, k, out);
  return Val_unit;
}
