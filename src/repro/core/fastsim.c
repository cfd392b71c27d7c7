/* Compiled timing kernel: the scalar simulator's run loop, ported
 * statement-for-statement so results are bit-identical.
 *
 * This kernel owns the (clock, node) event heap and the whole run:
 * plain loads/stores, barriers, FIFO locks and each node's stream end
 * (or max_refs cut), exactly as Simulator._run_scalar orders them.
 * fs_run returns to Python once, when the heap drains (or on an
 * error), plus, on traced runs, whenever the trace buffer passes its
 * drain limit.
 *
 * Exactness requirements honoured here:
 *  - CPython's random.Random: MT19937 seeded via init_by_array over the
 *    little-endian 32-bit digits of the 64-bit substream seed;
 *    getrandbits(k<=32) == genrand_uint32() >> (32-k); _randbelow via
 *    rejection sampling; shuffle's exact Fisher-Yates loop; random() as
 *    genrand_res53 and float ** float as libm pow (the stream twins).
 *  - Python-dict LRU semantics for caches/AM (insertion order, pop and
 *    re-insert on touch, first key is the victim).
 *  - The protocol engine's statement order (counter creation included:
 *    a counter key exists iff Counters.add() was called, even with 0).
 *
 * With a tracer attached (timing runs and captures), the kernel also writes
 * the tracer's packed trace records -- the same bytes the scalar
 * engine's emitters produce, in the same order -- into a bounded buffer
 * that Python drains at every return (see "packed trace records").
 *
 * Built with plain `gcc -O2 -shared -fPIC` and loaded through cffi's ABI
 * mode; no Python.h involved.
 */

#include <math.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* status / error codes                                                */
/* ------------------------------------------------------------------ */
#define FS_DONE 0
#define FS_TRACE_FULL 1 /* trace buffer passed its flush limit; drain, re-enter */

#define FS_ERR_PROTOCOL (-1)
#define FS_ERR_CAPACITY (-2)
#define FS_ERR_KEY (-3)
#define FS_ERR_INTERNAL (-4)
/* the scalar engine's ReproErrors, detail in fs_run's out / fs_sync_words */
#define FS_ERR_DEADLOCK (-5)       /* barriers never released */
#define FS_ERR_BARRIER_TWICE (-6)  /* out: node, barrier */
#define FS_ERR_UNLOCK (-7)         /* out: node, word, holder (-1: none) */
#define FS_ERR_LOCKS_HELD (-8)     /* locks still held at the end */
#define FS_ERR_OPCODE (-9)         /* out: the unknown opcode */

/* reference-stream opcodes (repro.system.refs) */
#define REF_READ 0
#define REF_WRITE 1
#define REF_BARRIER 2
#define REF_LOCK 3
#define REF_UNLOCK 4

/* message kinds (order mirrors repro.interconnect.message.MessageKind) */
#define MSG_READ_REQUEST 0
#define MSG_WRITE_REQUEST 1
#define MSG_UPGRADE_REQUEST 2
#define MSG_FORWARD 3
#define MSG_INVALIDATE 4
#define MSG_ACK 5
#define MSG_SHARER_DROP 6
#define MSG_BLOCK_REPLY 7
#define MSG_INJECT 8
#define MSG_INJECT_FORWARD 9
#define N_MSG_KINDS 10

/* AM states (repro.coma.states.AMState) */
#define AM_INVALID 0
#define AM_SHARED 1
#define AM_MASTER_SHARED 2
#define AM_EXCLUSIVE 3

/* SLC/FLC block states (repro.cache.cache) */
#define ST_CLEAN_SHARED 0
#define ST_CLEAN_EXCLUSIVE 1
#define ST_DIRTY 2

/* global counter indices (mirrored in timing_kernels.GLOBAL_COUNTERS) */
#define G_AM_LOCAL_HITS 0
#define G_REMOTE_READS 1
#define G_REMOTE_WRITES 2
#define G_UPGRADES 3
#define G_INVALIDATIONS 4
#define G_INJECTIONS 5
#define G_INJECT_FORWARDS 6
#define G_INJECT_MERGES 7
#define G_INJECT_DISPLACEMENTS 8
#define G_SHARER_DROPS 9
#define G_SLC_WB_TO_AM 10
#define G_MSG_BASE 11 /* 11..20: msg_<kind> in MessageKind order */
#define G_MSG_LOCAL 21
#define G_MSG_REMOTE 22
#define G_NETWORK_CYCLES 23
#define G_PAYLOAD_BYTES 24
#define G_CONTENTION_CYCLES 25
#define N_GLOBAL 26

/* per-node counter indices (timing_kernels.NODE_COUNTERS) */
#define C_READS 0
#define C_WRITES 1
#define C_HIDDEN_STORE_CYCLES 2
#define C_REMOTE_ACCESSES 3
#define C_AM_LOCAL_ACCESSES 4
#define C_SLC_WRITEBACKS 5
#define C_SLC_COHERENCE_WRITEBACKS 6
#define C_INCLUSION_INVALIDATIONS 7
#define C_INCLUSION_DOWNGRADES 8
#define N_NODE_CTR 9

/* translation taps */
#define TAP_NONE (-1)
#define TAP_L0 0
#define TAP_L1 1
#define TAP_L2 2
#define TAP_L3 3
#define TAP_HOME 4

#define N_HIST_BUCKETS 64

/* capture column indices (taptrace.CAPTURE_COLUMNS order; the
 * uncoupled StudyAgent/CaptureAgent observation points) */
#define SW_L0 0
#define SW_L1 1
#define SW_L2 2
#define SW_L2NW 3
#define SW_L3 4
#define SW_HOME 5
#define SW_HOME_REQ 6 /* the requesting node of each SW_HOME page */
#define N_SWEEP_TAPS 7

/* geometry array indices (timing_kernels.GEOM fields) */
enum {
    GEOM_NODES = 0,
    GEOM_THINK,
    GEOM_PAGE_BITS,
    GEOM_BLOCK_BITS,
    GEOM_FLC_BLOCK,
    GEOM_FLC_SETS,
    GEOM_FLC_ASSOC,
    GEOM_SLC_BLOCK,
    GEOM_SLC_SETS,
    GEOM_SLC_ASSOC,
    GEOM_AM_SETS,
    GEOM_AM_ASSOC,
    GEOM_SLC_HIT,
    GEOM_AM_HIT,
    GEOM_REQ_CYCLES,
    GEOM_BLK_CYCLES,
    GEOM_DIR_LATENCY,
    GEOM_PENALTY,
    GEOM_VIRTUAL_FLC,
    GEOM_VIRTUAL_SLC,
    GEOM_VIRTUAL_AM,
    GEOM_RELAXED,
    GEOM_TAP, /* TAP_NONE when no timing agent */
    GEOM_INCLUDE_L2_WB,
    GEOM_TLB_ENTRIES,
    GEOM_TLB_SETS,
    GEOM_TLB_ASSOC,
    GEOM_MAX_REFS, /* -1: unlimited */
    GEOM_AM_BLOCK,
    GEOM_REQ_PAYLOAD,
    GEOM_BLK_PAYLOAD,
    GEOM_DIR_CAPACITY,
    GEOM_MAP_CAPACITY,
    GEOM_CONTENTION, /* crossbar input-port serialization on */
    GEOM_LEN
};

/* trace configuration array indices (timing_kernels.TC_* slots):
 * the tracer's codec ids and global string-table ids for every record
 * shape a traced run emits, plus the drain limit */
enum {
    TC_REF = 0,    /* codec ids */
    TC_FETCH,
    TC_UPGRADE,
    TC_INVALIDATE,
    TC_INJECT,
    TC_MSG,
    TC_HIT,
    TC_FILL,
    TC_PHASE,
    TC_BARRIER,
    TC_LOCK,
    TC_PHASE_EVERY, /* refs between "phase" events; 0 disables */
    TC_LIMIT,       /* buffered bytes that make fs_run return FS_TRACE_FULL */
    TC_FAIL_GROWTH, /* injected fault: the buffer never grows past its first chunk */
    TC_PARENT,      /* span id every record emitted outside a C span hangs off */
    TC_FALSE,       /* string ids */
    TC_TRUE,
    TC_READ,
    TC_WRITE,
    TC_MSG_NAMES,                        /* N_MSG_KINDS ids, MessageKind order */
    TC_STATE_NAMES = TC_MSG_NAMES + N_MSG_KINDS, /* 4 ids, AMState order */
    TC_LEN = TC_STATE_NAMES + 4
};

/* ------------------------------------------------------------------ */
/* CPython-compatible Mersenne Twister                                 */
/* ------------------------------------------------------------------ */
#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU

typedef struct {
    uint32_t mt[MT_N];
    int index;
} MT;

/* States transfer from/to random.Random.getstate()/setstate() (625
 * words: mt[624] + index), so the engine continues a Python-seeded
 * generator with only the core recurrence and tempering. */
static void mt_load(MT *r, const uint32_t *state) {
    memcpy(r->mt, state, MT_N * sizeof(uint32_t));
    r->index = (int)state[MT_N];
}

/* random.Random(seed) for 0 <= seed < 2**64: init_genrand(19650218),
 * then init_by_array over the seed's little-endian 32-bit digits (one
 * word below 2**32, zero included) -- CPython's random_seed. */
static void mt_seed(MT *r, uint64_t seed) {
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    int klen = key[1] ? 2 : 1;
    uint32_t *mt = r->mt;
    mt[0] = 19650218U;
    for (int i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
    int i = 1, j = 0;
    for (int k = MT_N > klen ? MT_N : klen; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= klen) j = 0;
    }
    for (int k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    r->index = MT_N;
}

/* Regenerate all MT_N state words (the next block of output). */
static void mt_twist(MT *r) {
    uint32_t y, *mt = r->mt;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1U) ? MT_MATRIX_A : 0U);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ ((y & 1U) ? MT_MATRIX_A : 0U);
    }
    y = (mt[MT_N - 1] & MT_UPPER) | (mt[0] & MT_LOWER);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1U) ? MT_MATRIX_A : 0U);
    r->index = 0;
}

static inline uint32_t mt_temper(uint32_t y) {
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static uint32_t mt_genrand(MT *r) {
    if (r->index >= MT_N) mt_twist(r);
    return mt_temper(r->mt[r->index++]);
}

/* random.getrandbits(k) for 1 <= k <= 32 */
static inline uint32_t mt_getrandbits(MT *r, int k) {
    return mt_genrand(r) >> (32 - k);
}

static inline int bit_length32(uint32_t n) {
    int b = 0;
    while (n) {
        b++;
        n >>= 1;
    }
    return b;
}

/* random.Random._randbelow_with_getrandbits */
static uint32_t mt_randbelow(MT *r, uint32_t n) {
    if (!n) return 0;
    int k = bit_length32(n);
    uint32_t v = mt_getrandbits(r, k);
    while (v >= n) v = mt_getrandbits(r, k);
    return v;
}

/* random.Random.shuffle */
static void mt_shuffle(MT *r, int32_t *arr, int len) {
    for (int i = len - 1; i >= 1; i--) {
        uint32_t j = mt_randbelow(r, (uint32_t)(i + 1));
        int32_t tmp = arr[i];
        arr[i] = arr[j];
        arr[j] = tmp;
    }
}

/* ------------------------------------------------------------------ */
/* ordered (LRU) set-associative tag store == Python dict semantics    */
/* ------------------------------------------------------------------ */
typedef struct {
    int64_t *blocks; /* sets * assoc, per-set insertion order (LRU first) */
    uint8_t *states;
    int32_t *count; /* per set */
    int64_t sets;
    int64_t assoc;
    int64_t set_mask;
    int block_shift;
    int64_t block_mask; /* ~(block_size-1) */
    int64_t hits, misses;
} Lru;

static int lru_init(Lru *c, int64_t sets, int64_t assoc, int64_t block_size) {
    c->sets = sets;
    c->assoc = assoc;
    c->set_mask = sets - 1;
    c->block_shift = bit_length32((uint32_t)block_size) - 1;
    c->block_mask = ~(block_size - 1);
    c->hits = 0;
    c->misses = 0;
    c->blocks = (int64_t *)malloc(sizeof(int64_t) * sets * assoc);
    c->states = (uint8_t *)malloc(sizeof(uint8_t) * sets * assoc);
    c->count = (int32_t *)calloc(sets, sizeof(int32_t));
    return (c->blocks && c->states && c->count) ? 0 : -1;
}

static void lru_free(Lru *c) {
    free(c->blocks);
    free(c->states);
    free(c->count);
}

static inline int64_t lru_set_of(const Lru *c, int64_t addr) {
    return (addr >> c->block_shift) & c->set_mask;
}

static inline int lru_find(const Lru *c, int64_t set, int64_t block) {
    const int64_t *b = c->blocks + set * c->assoc;
    int n = c->count[set];
    for (int i = 0; i < n; i++) {
        if (b[i] == block) return i;
    }
    return -1;
}

/* dict pop + reinsert: move way `i` to the back, keep its state */
static inline void lru_touch(Lru *c, int64_t set, int i) {
    int n = c->count[set];
    if (i == n - 1) return;
    int64_t *b = c->blocks + set * c->assoc;
    uint8_t *s = c->states + set * c->assoc;
    int64_t blk = b[i];
    uint8_t st = s[i];
    memmove(b + i, b + i + 1, (n - 1 - i) * sizeof(int64_t));
    memmove(s + i, s + i + 1, (n - 1 - i) * sizeof(uint8_t));
    b[n - 1] = blk;
    s[n - 1] = st;
}

static inline void lru_remove_at(Lru *c, int64_t set, int i) {
    int n = c->count[set];
    int64_t *b = c->blocks + set * c->assoc;
    uint8_t *s = c->states + set * c->assoc;
    memmove(b + i, b + i + 1, (n - 1 - i) * sizeof(int64_t));
    memmove(s + i, s + i + 1, (n - 1 - i) * sizeof(uint8_t));
    c->count[set] = n - 1;
}

static inline void lru_append(Lru *c, int64_t set, int64_t block, uint8_t state) {
    int n = c->count[set];
    c->blocks[set * c->assoc + n] = block;
    c->states[set * c->assoc + n] = state;
    c->count[set] = n + 1;
}

/* ------------------------------------------------------------------ */
/* open-addressed int64 -> slot hash maps (no deletion)                */
/* ------------------------------------------------------------------ */
typedef struct {
    int64_t *keys; /* -1 == empty */
    int64_t *slot; /* payload index (or value) */
    int64_t capacity;
    int64_t mask;
    int64_t used;
} Map;

static int map_init(Map *m, int64_t capacity_hint) {
    int64_t cap = 16;
    while (cap < capacity_hint * 2) cap <<= 1;
    m->capacity = cap;
    m->mask = cap - 1;
    m->used = 0;
    m->keys = (int64_t *)malloc(sizeof(int64_t) * cap);
    m->slot = (int64_t *)malloc(sizeof(int64_t) * cap);
    if (!m->keys || !m->slot) return -1;
    for (int64_t i = 0; i < cap; i++) m->keys[i] = -1;
    return 0;
}

static void map_free(Map *m) {
    free(m->keys);
    free(m->slot);
}

static inline uint64_t map_hash(int64_t key) {
    uint64_t h = (uint64_t)key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

static int64_t map_get(const Map *m, int64_t key) {
    uint64_t i = map_hash(key) & m->mask;
    while (m->keys[i] != -1) {
        if (m->keys[i] == key) return m->slot[i];
        i = (i + 1) & m->mask;
    }
    return -1;
}

static int map_grow(Map *m);

static int map_put(Map *m, int64_t key, int64_t value) {
    if ((m->used + 1) * 10 >= m->capacity * 7) {
        if (map_grow(m)) return -1;
    }
    uint64_t i = map_hash(key) & m->mask;
    while (m->keys[i] != -1) {
        if (m->keys[i] == key) {
            m->slot[i] = value;
            return 0;
        }
        i = (i + 1) & m->mask;
    }
    m->keys[i] = key;
    m->slot[i] = value;
    m->used++;
    return 0;
}

static int map_grow(Map *m) {
    int64_t old_cap = m->capacity;
    int64_t *ok = m->keys, *os = m->slot;
    m->capacity = old_cap * 2;
    m->mask = m->capacity - 1;
    m->keys = (int64_t *)malloc(sizeof(int64_t) * m->capacity);
    m->slot = (int64_t *)malloc(sizeof(int64_t) * m->capacity);
    if (!m->keys || !m->slot) return -1;
    for (int64_t i = 0; i < m->capacity; i++) m->keys[i] = -1;
    m->used = 0;
    for (int64_t i = 0; i < old_cap; i++) {
        if (ok[i] != -1) {
            uint64_t j = map_hash(ok[i]) & m->mask;
            while (m->keys[j] != -1) j = (j + 1) & m->mask;
            m->keys[j] = ok[i];
            m->slot[j] = os[i];
            m->used++;
        }
    }
    free(ok);
    free(os);
    return 0;
}

/* ------------------------------------------------------------------ */
/* directory storage: block -> (owner, sharer bitmask)                 */
/* ------------------------------------------------------------------ */
typedef struct {
    Map index; /* block -> entry slot */
    int64_t *blocks;
    int32_t *owner;
    uint64_t *sharers; /* nentries * swords */
    int64_t nentries;
    int64_t cap_entries;
    int swords;
} Dir;

static int dir_init(Dir *d, int64_t capacity_hint, int swords) {
    d->swords = swords;
    d->nentries = 0;
    d->cap_entries = capacity_hint > 16 ? capacity_hint : 16;
    d->blocks = (int64_t *)malloc(sizeof(int64_t) * d->cap_entries);
    d->owner = (int32_t *)malloc(sizeof(int32_t) * d->cap_entries);
    d->sharers = (uint64_t *)calloc(d->cap_entries * swords, sizeof(uint64_t));
    if (!d->blocks || !d->owner || !d->sharers) return -1;
    return map_init(&d->index, capacity_hint);
}

static void dir_free(Dir *d) {
    free(d->blocks);
    free(d->owner);
    free(d->sharers);
    map_free(&d->index);
}

/* entry slot, creating on first touch (caller counts the lookup) */
static int64_t dir_entry_slot(Dir *d, int64_t block) {
    int64_t slot = map_get(&d->index, block);
    if (slot >= 0) return slot;
    if (d->nentries >= d->cap_entries) {
        int64_t nc = d->cap_entries * 2;
        int64_t *nb = (int64_t *)realloc(d->blocks, sizeof(int64_t) * nc);
        int32_t *no = (int32_t *)realloc(d->owner, sizeof(int32_t) * nc);
        uint64_t *ns = (uint64_t *)realloc(d->sharers, sizeof(uint64_t) * nc * d->swords);
        if (!nb || !no || !ns) return FS_ERR_INTERNAL;
        memset(ns + d->cap_entries * d->swords, 0,
               (nc - d->cap_entries) * d->swords * sizeof(uint64_t));
        d->blocks = nb;
        d->owner = no;
        d->sharers = ns;
        d->cap_entries = nc;
    }
    slot = d->nentries++;
    d->blocks[slot] = block;
    d->owner[slot] = -1;
    if (map_put(&d->index, block, slot)) return FS_ERR_INTERNAL;
    return slot;
}

static inline void sharers_add(Dir *d, int64_t slot, int node) {
    d->sharers[slot * d->swords + (node >> 6)] |= 1ULL << (node & 63);
}

static inline void sharers_clear_bit(Dir *d, int64_t slot, int node) {
    d->sharers[slot * d->swords + (node >> 6)] &= ~(1ULL << (node & 63));
}

static inline int sharers_has(const Dir *d, int64_t slot, int node) {
    return (d->sharers[slot * d->swords + (node >> 6)] >> (node & 63)) & 1;
}

static inline void sharers_zero(Dir *d, int64_t slot) {
    memset(d->sharers + slot * d->swords, 0, d->swords * sizeof(uint64_t));
}

/* ------------------------------------------------------------------ */
/* translation buffer (TLB / DLB)                                      */
/* ------------------------------------------------------------------ */
typedef struct {
    int64_t *tags; /* sets * assoc; position == way */
    int32_t *len;  /* per set */
    int64_t entries, sets, assoc;
    int assoc_bits;
    int64_t accesses, misses;
    MT rng;
} Tlb;

static int tlb_init(Tlb *t, int64_t entries, int64_t sets, int64_t assoc) {
    t->entries = entries;
    t->sets = sets;
    t->assoc = assoc;
    t->assoc_bits = bit_length32((uint32_t)assoc);
    t->accesses = 0;
    t->misses = 0;
    t->tags = (int64_t *)malloc(sizeof(int64_t) * sets * assoc);
    t->len = (int32_t *)calloc(sets, sizeof(int32_t));
    return (t->tags && t->len) ? 0 : -1;
}

static void tlb_free(Tlb *t) {
    free(t->tags);
    free(t->len);
}

/* TranslationBuffer.access: returns 1 on hit */
static int tlb_access(Tlb *t, int64_t page) {
    t->accesses++;
    int64_t set = (int64_t)(page % t->sets);
    int64_t *ways = t->tags + set * t->assoc;
    int n = t->len[set];
    for (int i = 0; i < n; i++) {
        if (ways[i] == page) return 1;
    }
    /* _install */
    t->misses++;
    if (n < t->assoc) {
        ways[n] = page;
        t->len[set] = n + 1;
    } else if (t->assoc > 1) {
        uint32_t way = mt_getrandbits(&t->rng, t->assoc_bits);
        while (way >= (uint32_t)t->assoc) way = mt_getrandbits(&t->rng, t->assoc_bits);
        ways[way] = page;
    } else {
        ways[0] = page;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* tap-stream capture: growable page-number vectors                    */
/*                                                                     */
/* The uncoupled sweep agents (StudyAgent / CaptureAgent) never stall   */
/* the hierarchy -- they only observe the page number reaching each of  */
/* the six translation taps.  In capture mode the kernel appends those  */
/* pages, per (tap, node), in exact scalar call order, plus the node    */
/* that requested each HOME-tap lookup (SW_HOME_REQ); the bank models   */
/* are then replayed over every stream of the set (fs_bank_run_set).    */
/* ------------------------------------------------------------------ */
typedef struct {
    int64_t *data;
    int64_t len, cap;
    int width; /* 0 while capturing; 4 or 8 once exported (fs_cap_data) */
} Cap;

static int cap_push(Cap *c, int64_t page) {
    if (c->len >= c->cap) {
        int64_t nc = c->cap ? c->cap * 2 : 1024;
        int64_t *nd = (int64_t *)realloc(c->data, sizeof(int64_t) * nc);
        if (!nd) return -1;
        c->data = nd;
        c->cap = nc;
    }
    c->data[c->len++] = page;
    return 0;
}

/* ------------------------------------------------------------------ */
/* packed trace records                                                */
/*                                                                     */
/* With a tracer attached, the kernel writes the tracer's own packed   */
/* record format ([u8 codec][n x int64 LE], see fs_trace_render) for   */
/* every record the scalar engine would emit inside its "run" span,    */
/* in the same order.  Span ids, the innermost open span and the       */
/* tracer's last seen time are mirrored here and exchanged with the    */
/* Python tracer at every fs_run boundary.  Spans                      */
/* are written when they close (children before parents), exactly as  */
/* Tracer.end does.                                                    */
/* ------------------------------------------------------------------ */
#define TR_INITIAL_CAP 4096
#define TR_MAX_DEPTH 4 /* ref > protocol.fetch|upgrade, with headroom */
#define TR_MAX_SLOTS 4 /* begin values held by an open span */

typedef struct {
    int codec;
    int nvals;
    int64_t id, parent, t0;
    int64_t vals[TR_MAX_SLOTS]; /* packed begin values (string ids for enum/bool) */
} TrSpan;

typedef struct {
    uint8_t *buf;
    int64_t len, cap, limit;
    int oom;         /* sticky allocation failure, surfaced by fs_run */
    int fail_growth; /* injected fault */
    int64_t cfg[TC_LEN];
    int64_t next_id, last_time, top; /* top: innermost open span id, -1 none */
    TrSpan stack[TR_MAX_DEPTH];
    int depth;
    int64_t total_refs; /* main-loop references, for "phase" events */
} Trace;

static void tr_put(Trace *tr, int codec, const int64_t *vals, int n) {
    int64_t need = 1 + 8 * (int64_t)n;
    if (tr->oom) return;
    if (tr->len + need > tr->cap) {
        int64_t nc = tr->cap ? tr->cap : TR_INITIAL_CAP;
        while (nc < tr->len + need) nc *= 2;
        uint8_t *nb = (tr->cap && tr->fail_growth) ? 0 : (uint8_t *)realloc(tr->buf, (size_t)nc);
        if (!nb) {
            tr->oom = 1;
            return;
        }
        tr->buf = nb;
        tr->cap = nc;
    }
    uint8_t *o = tr->buf + tr->len;
    *o++ = (uint8_t)codec;
    memcpy(o, vals, 8 * (size_t)n); /* the format is little-endian, like the host */
    tr->len += need;
}

static inline void tr_seen(Trace *tr, int64_t t) {
    if (t > tr->last_time) tr->last_time = t;
}

/* Tracer.event_emitter: (span, t, *vals) under the innermost open span */
static void tr_event(Trace *tr, int codec, int64_t t, const int64_t *vals, int n) {
    int64_t rec[2 + TR_MAX_SLOTS + 2];
    rec[0] = tr->top;
    rec[1] = t;
    memcpy(rec + 2, vals, 8 * (size_t)n);
    tr_put(tr, codec, rec, 2 + n);
    tr_seen(tr, t);
}

/* span_emitter begin: assign the id, capture the parent, push */
static void tr_open(Trace *tr, int codec, int64_t t0, const int64_t *vals, int n) {
    TrSpan *sp = &tr->stack[tr->depth++];
    sp->codec = codec;
    sp->nvals = n;
    sp->id = tr->next_id++;
    sp->parent = tr->top;
    sp->t0 = t0;
    memcpy(sp->vals, vals, 8 * (size_t)n);
    tr->top = sp->id;
    tr_seen(tr, t0);
}

/* span_emitter end: pop the innermost span and write its record */
static void tr_close(Trace *tr, int64_t t1, const int64_t *vals, int n) {
    TrSpan *sp = &tr->stack[--tr->depth];
    int64_t rec[4 + 2 * TR_MAX_SLOTS];
    rec[0] = sp->id;
    rec[1] = sp->parent;
    rec[2] = sp->t0;
    rec[3] = t1;
    memcpy(rec + 4, sp->vals, 8 * (size_t)sp->nvals);
    memcpy(rec + 4 + sp->nvals, vals, 8 * (size_t)n);
    tr->top = sp->parent;
    tr_put(tr, sp->codec, rec, 4 + sp->nvals + n);
    tr_seen(tr, t1);
}

/* ------------------------------------------------------------------ */
/* binary heap of (time, node), lexicographic                          */
/* ------------------------------------------------------------------ */
typedef struct {
    int64_t *t;
    int32_t *n;
    int len;
    int cap;
} Heap;

static int heap_init(Heap *h, int cap) {
    h->len = 0;
    h->cap = cap;
    h->t = (int64_t *)malloc(sizeof(int64_t) * cap);
    h->n = (int32_t *)malloc(sizeof(int32_t) * cap);
    return (h->t && h->n) ? 0 : -1;
}

static void heap_free(Heap *h) {
    free(h->t);
    free(h->n);
}

static inline int heap_less(const Heap *h, int a, int b) {
    if (h->t[a] != h->t[b]) return h->t[a] < h->t[b];
    return h->n[a] < h->n[b];
}

static int heap_push(Heap *h, int64_t t, int32_t n) {
    if (h->len >= h->cap) {
        int nc = h->cap * 2;
        int64_t *nt = (int64_t *)realloc(h->t, sizeof(int64_t) * nc);
        int32_t *nn = (int32_t *)realloc(h->n, sizeof(int32_t) * nc);
        if (!nt || !nn) return -1;
        h->t = nt;
        h->n = nn;
        h->cap = nc;
    }
    int i = h->len++;
    h->t[i] = t;
    h->n[i] = n;
    while (i > 0) {
        int parent = (i - 1) >> 1;
        if (heap_less(h, i, parent)) {
            int64_t tt = h->t[i];
            int32_t tn = h->n[i];
            h->t[i] = h->t[parent];
            h->n[i] = h->n[parent];
            h->t[parent] = tt;
            h->n[parent] = tn;
            i = parent;
        } else {
            break;
        }
    }
    return 0;
}

static void heap_pop(Heap *h, int64_t *t_out, int32_t *n_out) {
    *t_out = h->t[0];
    *n_out = h->n[0];
    h->len--;
    if (h->len == 0) return;
    h->t[0] = h->t[h->len];
    h->n[0] = h->n[h->len];
    int i = 0;
    for (;;) {
        int l = 2 * i + 1, r = 2 * i + 2, m = i;
        if (l < h->len && heap_less(h, l, m)) m = l;
        if (r < h->len && heap_less(h, r, m)) m = r;
        if (m == i) break;
        int64_t tt = h->t[i];
        int32_t tn = h->n[i];
        h->t[i] = h->t[m];
        h->n[i] = h->n[m];
        h->t[m] = tt;
        h->n[m] = tn;
        i = m;
    }
}

/* ------------------------------------------------------------------ */
/* lock table: Simulator._run_scalar's lock_holder/lock_queue dicts    */
/* ------------------------------------------------------------------ */
/* Locks are numbered in first-acquisition order (the holder dict's    */
/* insertion order); index is an open-addressing table over the words  */
/* holding lock number + 1 (0: empty).  Each lock's FIFO of waiters is */
/* linked through per-node fields: a waiting node is in one queue.     */
typedef struct {
    int64_t *word;
    int32_t *holder, *head, *tail; /* -1: none */
    int32_t *index;                /* 2 * cap slots */
    int32_t n, cap;
} Locks;

static void locks_free(Locks *lk) {
    free(lk->word);
    free(lk->holder);
    free(lk->head);
    free(lk->tail);
    free(lk->index);
}

static int lock_find(const Locks *lk, int64_t word) {
    if (!lk->cap) return -1;
    uint64_t mask = 2 * (uint64_t)lk->cap - 1;
    for (uint64_t i = map_hash(word) & mask; lk->index[i]; i = (i + 1) & mask)
        if (lk->word[lk->index[i] - 1] == word) return lk->index[i] - 1;
    return -1;
}

static void lock_index(Locks *lk, int32_t l) {
    uint64_t mask = 2 * (uint64_t)lk->cap - 1;
    uint64_t i = map_hash(lk->word[l]) & mask;
    while (lk->index[i]) i = (i + 1) & mask;
    lk->index[i] = l + 1;
}

/* a new, free lock for word; -1 on allocation failure */
static int lock_add(Locks *lk, int64_t word) {
    if (lk->n == lk->cap) {
        int32_t cap = lk->cap ? 2 * lk->cap : 8;
        int64_t *w = (int64_t *)realloc(lk->word, sizeof(int64_t) * cap);
        if (w) lk->word = w;
        int32_t *h = (int32_t *)realloc(lk->holder, sizeof(int32_t) * cap);
        if (h) lk->holder = h;
        int32_t *hd = (int32_t *)realloc(lk->head, sizeof(int32_t) * cap);
        if (hd) lk->head = hd;
        int32_t *tl = (int32_t *)realloc(lk->tail, sizeof(int32_t) * cap);
        if (tl) lk->tail = tl;
        int32_t *ix = (int32_t *)calloc(2 * (size_t)cap, sizeof(int32_t));
        if (!w || !h || !hd || !tl || !ix) {
            free(ix);
            return -1;
        }
        free(lk->index);
        lk->index = ix;
        lk->cap = cap;
        for (int32_t l = 0; l < lk->n; l++) lock_index(lk, l);
    }
    int32_t l = lk->n++;
    lk->word[l] = word;
    lk->holder[l] = lk->head[l] = lk->tail[l] = -1;
    lock_index(lk, l);
    return l;
}

/* ------------------------------------------------------------------ */
/* the simulator state                                                 */
/* ------------------------------------------------------------------ */
typedef struct FastSim {
    /* geometry */
    int64_t nodes, think;
    int page_bits, block_bits, node_bits;
    int64_t page_mask, node_mask, am_block_mask, am_block;
    int64_t slc_hit, am_hit, req_cycles, blk_cycles, dir_latency, penalty;
    int64_t req_payload, blk_payload;
    int virtual_flc, virtual_slc, virtual_am, needs_physical, relaxed;
    int tap, include_l2_wb, contention;
    int64_t max_refs;

    Lru *flc, *slc, *am; /* per node */
    Dir dir;
    int64_t *dir_lookups; /* per home */
    Tlb *tlbs;
    int ntlb;
    MT engine_rng;
    Map vpn2pfn, pfn2vpn;

    int64_t glob[N_GLOBAL], glob_calls[N_GLOBAL];
    int64_t *node_ctr, *node_calls;              /* nodes * N_NODE_CTR */
    int64_t *loc_stall, *rem_stall, *tlb_stall;  /* per node */
    int64_t *rh_buckets, *wh_buckets;            /* nodes * N_HIST_BUCKETS */
    int64_t *rh_count, *rh_total, *wh_count, *wh_total;

    const uint8_t **ops;
    const int64_t **vals;
    int64_t *slen, *pos;

    int64_t *clock, *refs_done;
    int64_t *port_free_at; /* per destination node (contention mode) */
    uint8_t *finished;
    Heap heap;

    /* synchronization: Simulator._run_scalar's barrier and lock state */
    int64_t *sync;      /* per node: cycles charged to sync */
    int64_t active;     /* nodes not yet finished */
    int64_t barriers;   /* barrier events executed */
    uint8_t *at_bar;    /* per node: waiting at bar_of[n] since bar_at[n] */
    int64_t *bar_of, *bar_at;
    int64_t *bar_ids;   /* outstanding barriers in arrival order (<= nodes) */
    int64_t *bar_count; /* their arrivals */
    int64_t nbar;
    Locks locks;
    int32_t *lq_next;   /* per node: next waiter in its lock's queue */
    int64_t *lq_at;     /* per node: when it queued */

    int64_t translation_accum;

    int32_t *cand; /* injection candidate scratch */

    /* tap-stream capture (uncoupled sweep mode) */
    Cap *caps; /* N_SWEEP_TAPS * nodes, tap-major; 0 when capture off */
    int capture;
    int cap_oom; /* sticky allocation failure, surfaced by fs_run */

    /* packed trace records (coupled runs with a tracer attached) */
    int trace;
    Trace tr;
} FastSim;

static inline void cap_feed(FastSim *s, int tap, int node, int64_t page) {
    if (cap_push(&s->caps[tap * s->nodes + node], page)) s->cap_oom = 1;
}

/* counter add == Counters.add (key exists once called, even with 0) */
static inline void gadd(FastSim *s, int idx, int64_t amount) {
    s->glob[idx] += amount;
    s->glob_calls[idx]++;
}

static inline void cadd(FastSim *s, int node, int idx, int64_t amount) {
    s->node_ctr[node * N_NODE_CTR + idx] += amount;
    s->node_calls[node * N_NODE_CTR + idx]++;
}

static inline void hist_record(int64_t *buckets, int64_t *count, int64_t *total, int64_t latency) {
    int bucket = 0;
    if (latency > 0) {
        bucket = 63 - __builtin_clzll((uint64_t)latency);
    }
    buckets[bucket]++;
    (*count)++;
    (*total) += latency;
}

/* ------------------------------------------------------------------ */
/* address plumbing                                                    */
/* ------------------------------------------------------------------ */
static inline int64_t to_phys(FastSim *s, int64_t vaddr, int *err) {
    int64_t pfn = map_get(&s->vpn2pfn, vaddr >> s->page_bits);
    if (pfn < 0) {
        *err = FS_ERR_KEY;
        return 0;
    }
    return (pfn << s->page_bits) | (vaddr & s->page_mask);
}

static inline int64_t to_virt(FastSim *s, int64_t paddr, int *err) {
    int64_t vpn = map_get(&s->pfn2vpn, paddr >> s->page_bits);
    if (vpn < 0) {
        *err = FS_ERR_KEY;
        return 0;
    }
    return (vpn << s->page_bits) | (paddr & s->page_mask);
}

static inline int home_of(FastSim *s, int64_t addr) {
    return (int)((addr >> s->page_bits) & s->node_mask);
}

/* TimingAgent._translate at a per-node tap; traced runs emit the
 * buffer's trace_hook event, stamped at the tracer's last seen time */
static inline int64_t translate(FastSim *s, int buffer, int64_t vpn) {
    int hit = tlb_access(&s->tlbs[buffer], vpn);
    if (s->trace) {
        int64_t v[2] = {buffer, vpn};
        tr_event(&s->tr, (int)s->tr.cfg[hit ? TC_HIT : TC_FILL], s->tr.last_time, v, 2);
    }
    return hit ? 0 : s->penalty;
}

/* ------------------------------------------------------------------ */
/* crossbar: Crossbar.transfer, latency-only and port-contention modes */
/* ------------------------------------------------------------------ */
static inline void trace_msg(FastSim *s, int kind, int src, int dst, int64_t now,
                             int64_t cycles) {
    int64_t v[4] = {s->tr.cfg[TC_MSG_NAMES + kind], src, dst, cycles};
    tr_event(&s->tr, (int)s->tr.cfg[TC_MSG], now, v, 4);
}

static inline int64_t xfer(FastSim *s, int kind, int src, int dst, int64_t now) {
    gadd(s, G_MSG_BASE + kind, 1);
    if (src == dst) {
        gadd(s, G_MSG_LOCAL, 1);
        if (s->trace) trace_msg(s, kind, src, dst, now, 0);
        return now;
    }
    int carries = (kind == MSG_BLOCK_REPLY || kind == MSG_INJECT || kind == MSG_INJECT_FORWARD);
    int64_t cycles = carries ? s->blk_cycles : s->req_cycles;
    int64_t payload = carries ? s->blk_payload : s->req_payload;
    if (s->trace) trace_msg(s, kind, src, dst, now, cycles);
    gadd(s, G_MSG_REMOTE, 1);
    gadd(s, G_NETWORK_CYCLES, cycles);
    gadd(s, G_PAYLOAD_BYTES, payload);
    if (!s->contention) return now + cycles;
    /* the destination's input port serializes deliveries; the counter
     * key exists only once some transfer actually waited */
    int64_t start = now > s->port_free_at[dst] ? now : s->port_free_at[dst];
    int64_t done = start + cycles;
    s->port_free_at[dst] = done;
    if (start > now) gadd(s, G_CONTENTION_CYCLES, start - now);
    return done;
}

/* ProtocolEngine._dir_lookup_cycles */
static inline int64_t dir_lookup_cycles(FastSim *s, int home, int64_t addr, int injection,
                                        int requester) {
    if (s->capture) {
        cap_feed(s, SW_HOME, home, (addr >> s->page_bits) >> s->node_bits);
        cap_feed(s, SW_HOME_REQ, home, requester);
    }
    if (s->tap != TAP_HOME) return s->dir_latency;
    int64_t key = (addr >> s->page_bits) >> s->node_bits;
    int64_t pen = translate(s, home, key);
    if (!injection) s->translation_accum += pen;
    return s->dir_latency + pen;
}

/* Directory.entry(): counts the lookup, creates on first touch */
static inline int64_t dir_entry(FastSim *s, int home, int64_t block) {
    s->dir_lookups[home]++;
    return dir_entry_slot(&s->dir, block);
}

/* ------------------------------------------------------------------ */
/* inclusion hooks (Node.on_inclusion)                                 */
/* ------------------------------------------------------------------ */
static int engine_writeback(FastSim *s, int node, int64_t proto_addr) {
    int64_t block = proto_addr & s->am_block_mask;
    Lru *am = &s->am[node];
    int64_t set = lru_set_of(am, block);
    int way = lru_find(am, set, block);
    uint8_t state = (way >= 0) ? am->states[set * am->assoc + way] : AM_INVALID;
    if (state != AM_MASTER_SHARED && state != AM_EXCLUSIVE) return FS_ERR_PROTOCOL;
    gadd(s, G_SLC_WB_TO_AM, 1);
    return 0;
}

/* Node._write_back / _write_back_downgraded common tail */
static int node_writeback_tail(FastSim *s, int node, int64_t slc_block) {
    int err = 0;
    int64_t vaddr = s->virtual_slc ? slc_block : to_virt(s, slc_block, &err);
    if (err) return err;
    /* sweep agents feed every writeback into the L2 bank (and only
     * the L2 bank -- L2_NO_WBACK models the physical-pointer bypass) */
    if (s->capture) cap_feed(s, SW_L2, node, vaddr >> s->page_bits);
    if (s->tap == TAP_L2) {
        if (s->include_l2_wb) {
            /* cycles discarded by the caller, TLB side effects kept */
            (void)translate(s, node, vaddr >> s->page_bits);
        }
    }
    int64_t proto = s->virtual_am ? vaddr : to_phys(s, vaddr, &err);
    if (err) return err;
    return engine_writeback(s, node, proto);
}

static int node_write_back(FastSim *s, int node, int64_t slc_block) {
    cadd(s, node, C_SLC_WRITEBACKS, 1);
    return node_writeback_tail(s, node, slc_block);
}

static int node_write_back_downgraded(FastSim *s, int node, int64_t slc_block) {
    cadd(s, node, C_SLC_COHERENCE_WRITEBACKS, 1);
    return node_writeback_tail(s, node, slc_block);
}

static inline int64_t proto_to_slc(FastSim *s, int64_t proto_block, int *err) {
    if (s->virtual_slc == s->virtual_am) return proto_block;
    if (s->virtual_slc) return to_virt(s, proto_block, err);
    return to_phys(s, proto_block, err);
}

static inline int64_t slc_to_flc(FastSim *s, int64_t slc_block, int *err) {
    if (s->virtual_flc == s->virtual_slc) return slc_block;
    if (s->virtual_flc) return to_virt(s, slc_block, err);
    return to_phys(s, slc_block, err);
}

static void lru_invalidate_span(Lru *c, int64_t base, int64_t span, int64_t step) {
    int64_t start = base & c->block_mask;
    for (int64_t block = start; block < base + span; block += step) {
        int64_t set = lru_set_of(c, block);
        int way = lru_find(c, set, block);
        if (way >= 0) lru_remove_at(c, set, way);
    }
}

static int inclusion_invalidate(FastSim *s, int node, int64_t proto_block) {
    int err = 0;
    int64_t slc_base = proto_to_slc(s, proto_block, &err);
    if (err) return err;
    Lru *slc = &s->slc[node];
    lru_invalidate_span(slc, slc_base, s->am_block, 1LL << slc->block_shift);
    int64_t flc_base = slc_to_flc(s, slc_base, &err);
    if (err) return err;
    Lru *flc = &s->flc[node];
    lru_invalidate_span(flc, flc_base, s->am_block, 1LL << flc->block_shift);
    cadd(s, node, C_INCLUSION_INVALIDATIONS, 1);
    return 0;
}

static int inclusion_downgrade(FastSim *s, int node, int64_t proto_block) {
    int err = 0;
    int64_t slc_base = proto_to_slc(s, proto_block, &err);
    if (err) return err;
    Lru *slc = &s->slc[node];
    int64_t step = 1LL << slc->block_shift;
    int64_t start = slc_base & slc->block_mask;
    for (int64_t block = start; block < slc_base + s->am_block; block += step) {
        int64_t set = lru_set_of(slc, block);
        int way = lru_find(slc, set, block);
        if (way < 0) continue;
        uint8_t old = slc->states[set * slc->assoc + way];
        if (old == ST_DIRTY) {
            int rc = node_write_back_downgraded(s, node, block);
            if (rc) return rc;
            /* the writeback may not move this set's ways (it only touches
             * AM state), so `way` stays valid */
        }
        slc->states[set * slc->assoc + way] = ST_CLEAN_SHARED;
    }
    cadd(s, node, C_INCLUSION_DOWNGRADES, 1);
    return 0;
}

/* dispatcher mirroring Machine._inclusion_hook actions */
#define INCLUSION_INVALIDATE 0
#define INCLUSION_DOWNGRADE 1

static int inclusion(FastSim *s, int node, int64_t proto_block, int action) {
    if (action == INCLUSION_INVALIDATE) return inclusion_invalidate(s, node, proto_block);
    return inclusion_downgrade(s, node, proto_block);
}

/* ------------------------------------------------------------------ */
/* attraction-memory helpers                                           */
/* ------------------------------------------------------------------ */
static inline uint8_t am_state_of(FastSim *s, int node, int64_t addr) {
    Lru *am = &s->am[node];
    int64_t block = addr & s->am_block_mask;
    int64_t set = lru_set_of(am, block);
    int way = lru_find(am, set, block);
    return way < 0 ? AM_INVALID : am->states[set * am->assoc + way];
}

/* AttractionMemory.lookup: counts + LRU touch */
static uint8_t am_lookup(FastSim *s, int node, int64_t block) {
    Lru *am = &s->am[node];
    int64_t set = lru_set_of(am, block);
    int way = lru_find(am, set, block);
    if (way < 0) {
        am->misses++;
        return AM_INVALID;
    }
    am->hits++;
    uint8_t state = am->states[set * am->assoc + way];
    lru_touch(am, set, way);
    return state;
}

/* AttractionMemory.set_state on a resident block (state != INVALID) */
static int am_set_state(FastSim *s, int node, int64_t addr, uint8_t state) {
    Lru *am = &s->am[node];
    int64_t block = addr & s->am_block_mask;
    int64_t set = lru_set_of(am, block);
    int way = lru_find(am, set, block);
    if (way < 0) return FS_ERR_PROTOCOL;
    am->states[set * am->assoc + way] = state;
    return 0;
}

/* AttractionMemory.install (caller made room; block absent) */
static int am_install(FastSim *s, int node, int64_t block, uint8_t state) {
    Lru *am = &s->am[node];
    int64_t set = lru_set_of(am, block);
    int way = lru_find(am, set, block);
    if (way >= 0) {
        lru_touch(am, set, way);
        am->states[set * am->assoc + am->count[set] - 1] = state;
        return 0;
    }
    if (am->count[set] >= am->assoc) return FS_ERR_PROTOCOL;
    lru_append(am, set, block, state);
    return 0;
}

/* AttractionMemory.invalidate: returns 1 when the block was present */
static int am_invalidate(FastSim *s, int node, int64_t block) {
    Lru *am = &s->am[node];
    int64_t set = lru_set_of(am, block);
    int way = lru_find(am, set, block);
    if (way < 0) return 0;
    lru_remove_at(am, set, way);
    return 1;
}

/* ------------------------------------------------------------------ */
/* protocol engine                                                     */
/* ------------------------------------------------------------------ */
static int invalidate_copy(FastSim *s, int node, int64_t block) {
    if (am_invalidate(s, node, block)) {
        return inclusion(s, node, block, INCLUSION_INVALIDATE);
    }
    return 0;
}

/* returns the done time or negative error */
static int64_t invalidate_holders(FastSim *s, int64_t slot, int64_t block, int home,
                                  int exclude, int64_t start) {
    Dir *d = &s->dir;
    int64_t done = start;
    int64_t count = 0;
    int owner = d->owner[slot];
    uint64_t owner_cleared = 0;
    for (int n = 0; n < (int)s->nodes; n++) {
        int holder = sharers_has(d, slot, n) || (owner >= 0 && owner == n);
        if (!holder || n == exclude) continue;
        int64_t arrive = xfer(s, MSG_INVALIDATE, home, n, start);
        int rc = invalidate_copy(s, n, block);
        if (rc) return rc;
        int64_t ack = xfer(s, MSG_ACK, n, home, arrive);
        if (ack > done) done = ack;
        if (s->trace) {
            int64_t v[3] = {n, block, home};
            tr_event(&s->tr, (int)s->tr.cfg[TC_INVALIDATE], arrive, v, 3);
        }
        sharers_clear_bit(d, slot, n);
        if (owner >= 0 && owner == n) owner_cleared = 1;
        count++;
    }
    if (owner_cleared) d->owner[slot] = -1;
    gadd(s, G_INVALIDATIONS, count);
    return done;
}

static int inject(FastSim *s, int src, int64_t block, uint8_t state, int64_t now);

static int make_room(FastSim *s, int node, int64_t block, int64_t now) {
    Lru *am = &s->am[node];
    int64_t set = lru_set_of(am, block);
    if (am->count[set] < am->assoc) return 0;
    /* choose_victim: LRU Shared replica, else LRU master (way 0) */
    int way = -1;
    uint8_t vstate = AM_INVALID;
    int n = am->count[set];
    uint8_t *states = am->states + set * am->assoc;
    for (int i = 0; i < n; i++) {
        if (states[i] == AM_SHARED) {
            way = i;
            vstate = AM_SHARED;
            break;
        }
    }
    if (way < 0) {
        way = 0;
        vstate = states[0];
    }
    int64_t victim = am->blocks[set * am->assoc + way];
    lru_remove_at(am, set, way);
    int rc = inclusion(s, node, victim, INCLUSION_INVALIDATE);
    if (rc) return rc;
    if (vstate == AM_SHARED) {
        int vhome = home_of(s, victim);
        (void)xfer(s, MSG_SHARER_DROP, node, vhome, now);
        int64_t slot = map_get(&s->dir.index, victim);
        if (slot >= 0) sharers_clear_bit(&s->dir, slot, node);
        gadd(s, G_SHARER_DROPS, 1);
        return 0;
    }
    return inject(s, node, victim, vstate, now);
}

static int accept_injection(FastSim *s, int target, int64_t block, uint8_t state,
                            int64_t slot, int home_rules) {
    uint8_t resident = am_state_of(s, target, block);
    if (resident == AM_SHARED) {
        int rc = am_set_state(s, target, block, AM_MASTER_SHARED);
        if (rc) return rc;
        sharers_clear_bit(&s->dir, slot, target);
        s->dir.owner[slot] = target;
        gadd(s, G_INJECT_MERGES, 1);
        return 1;
    }
    Lru *am = &s->am[target];
    int64_t set = lru_set_of(am, block);
    if (am->count[set] < am->assoc) {
        int rc = am_install(s, target, block, state);
        if (rc) return rc;
        s->dir.owner[slot] = target;
        return 1;
    }
    if (home_rules) return 0;
    /* droppable_victim: first Shared in LRU order */
    int n = am->count[set];
    uint8_t *states = am->states + set * am->assoc;
    int way = -1;
    for (int i = 0; i < n; i++) {
        if (states[i] == AM_SHARED) {
            way = i;
            break;
        }
    }
    if (way < 0) return 0;
    int64_t dropped = am->blocks[set * am->assoc + way];
    lru_remove_at(am, set, way);
    int rc = inclusion(s, target, dropped, INCLUSION_INVALIDATE);
    if (rc) return rc;
    int64_t dslot = map_get(&s->dir.index, dropped);
    if (dslot >= 0) sharers_clear_bit(&s->dir, dslot, target);
    gadd(s, G_INJECT_DISPLACEMENTS, 1);
    rc = am_install(s, target, block, state);
    if (rc) return rc;
    s->dir.owner[slot] = target;
    return 1;
}

static int inject(FastSim *s, int src, int64_t block, uint8_t state, int64_t now) {
    gadd(s, G_INJECTIONS, 1);
    int home = home_of(s, block);
    if (s->trace) {
        int64_t v[4] = {src, block, home, s->tr.cfg[TC_STATE_NAMES + state]};
        tr_event(&s->tr, (int)s->tr.cfg[TC_INJECT], now, v, 4);
    }
    int64_t t = xfer(s, MSG_INJECT, src, home, now);
    t += dir_lookup_cycles(s, home, block, 1, src);
    int64_t slot = dir_entry(s, home, block);
    if (slot < 0) return (int)slot;
    if (home != src) {
        int rc = accept_injection(s, home, block, state, slot, 1);
        if (rc < 0) return rc;
        if (rc) return 0;
    }
    int m = 0;
    for (int n = 0; n < (int)s->nodes; n++) {
        if (n != src && n != home) s->cand[m++] = n;
    }
    mt_shuffle(&s->engine_rng, s->cand, m);
    int prev = home;
    for (int i = 0; i < m; i++) {
        t = xfer(s, MSG_INJECT_FORWARD, prev, s->cand[i], t);
        gadd(s, G_INJECT_FORWARDS, 1);
        prev = s->cand[i];
        int rc = accept_injection(s, s->cand[i], block, state, slot, 0);
        if (rc < 0) return rc;
        if (rc) return 0;
    }
    return FS_ERR_CAPACITY;
}

/* returns stall cycles beyond the AM lookup, or negative error */
static int64_t remote_fetch(FastSim *s, int node, int64_t block, int is_write, int64_t now) {
    gadd(s, is_write ? G_REMOTE_WRITES : G_REMOTE_READS, 1);
    int64_t penalty = 0;
    if (s->capture) cap_feed(s, SW_L3, node, block >> s->page_bits);
    if (s->tap == TAP_L3) penalty = translate(s, node, block >> s->page_bits);
    s->translation_accum += penalty;
    int home = home_of(s, block);
    int64_t t = now + penalty;
    t = xfer(s, is_write ? MSG_WRITE_REQUEST : MSG_READ_REQUEST, node, home, t);
    t += dir_lookup_cycles(s, home, block, 0, node);
    int64_t slot = dir_entry(s, home, block);
    if (slot < 0) return slot;
    int owner = s->dir.owner[slot];
    if (owner < 0) return FS_ERR_PROTOCOL; /* no master copy */
    if (owner == node) return FS_ERR_PROTOCOL; /* missed on own master */

    if (is_write) {
        t = invalidate_holders(s, slot, block, home, node, t);
        if (t < 0) return t;
        int supplier = owner;
        if (supplier == home) {
            t += s->am_hit;
        } else {
            t = xfer(s, MSG_FORWARD, home, supplier, t);
            t += s->am_hit;
        }
        t = xfer(s, MSG_BLOCK_REPLY, supplier, node, t);
        int rc = make_room(s, node, block, now);
        if (rc) return rc;
        slot = map_get(&s->dir.index, block); /* re-find: inject may rehash */
        rc = am_install(s, node, block, AM_EXCLUSIVE);
        if (rc) return rc;
        s->dir.owner[slot] = node;
        sharers_zero(&s->dir, slot);
    } else {
        int supplier = owner;
        if (supplier == home) {
            t += s->am_hit;
        } else {
            t = xfer(s, MSG_FORWARD, home, supplier, t);
            t += s->am_hit;
        }
        if (am_state_of(s, supplier, block) == AM_EXCLUSIVE) {
            int rc = am_set_state(s, supplier, block, AM_MASTER_SHARED);
            if (rc) return rc;
            rc = inclusion(s, supplier, block, INCLUSION_DOWNGRADE);
            if (rc) return rc;
        }
        t = xfer(s, MSG_BLOCK_REPLY, supplier, node, t);
        int rc = make_room(s, node, block, now);
        if (rc) return rc;
        slot = map_get(&s->dir.index, block);
        rc = am_install(s, node, block, AM_SHARED);
        if (rc) return rc;
        sharers_add(&s->dir, slot, node);
    }
    return t - now;
}

static int64_t upgrade(FastSim *s, int node, int64_t block, int64_t now) {
    gadd(s, G_UPGRADES, 1);
    int64_t penalty = 0;
    if (s->capture) cap_feed(s, SW_L3, node, block >> s->page_bits);
    if (s->tap == TAP_L3) penalty = translate(s, node, block >> s->page_bits);
    s->translation_accum += penalty;
    int home = home_of(s, block);
    int64_t t = now + penalty;
    t = xfer(s, MSG_UPGRADE_REQUEST, node, home, t);
    t += dir_lookup_cycles(s, home, block, 0, node);
    int64_t slot = dir_entry(s, home, block);
    if (slot < 0) return slot;
    if (s->dir.owner[slot] < 0) return FS_ERR_PROTOCOL;
    t = invalidate_holders(s, slot, block, home, node, t);
    if (t < 0) return t;
    t = xfer(s, MSG_ACK, home, node, t);
    s->dir.owner[slot] = node;
    sharers_zero(&s->dir, slot);
    int rc = am_set_state(s, node, block, AM_EXCLUSIVE);
    if (rc) return rc;
    return t - now;
}

/* ProtocolEngine._fetch; *remote / *translation are the outcome fields */
static int64_t engine_fetch(FastSim *s, int node, int64_t addr, int is_write, int64_t now,
                            int *remote, int64_t *translation) {
    int64_t block = addr & s->am_block_mask;
    s->translation_accum = 0;
    uint8_t state = am_lookup(s, node, block);
    if (state != AM_INVALID) {
        if (!is_write || state == AM_EXCLUSIVE) {
            gadd(s, G_AM_LOCAL_HITS, 1);
            *remote = 0;
            *translation = 0;
            return s->am_hit;
        }
        int64_t up = upgrade(s, node, block, now);
        if (up < 0) return up;
        *remote = 1;
        *translation = s->translation_accum;
        return s->am_hit + up;
    }
    int64_t rf = remote_fetch(s, node, block, is_write, now);
    if (rf < 0) return rf;
    *remote = 1;
    *translation = s->translation_accum;
    return s->am_hit + rf;
}

/* ProtocolEngine._upgrade_for_write */
static int64_t engine_upgrade_for_write(FastSim *s, int node, int64_t addr, int64_t now,
                                        int *remote, int64_t *translation) {
    int64_t block = addr & s->am_block_mask;
    s->translation_accum = 0;
    uint8_t state = am_lookup(s, node, block);
    if (state == AM_INVALID) return FS_ERR_PROTOCOL; /* SLC/AM inclusion violated */
    if (state == AM_EXCLUSIVE) {
        gadd(s, G_AM_LOCAL_HITS, 1);
        *remote = 0;
        *translation = 0;
        return s->am_hit;
    }
    int64_t up = upgrade(s, node, block, now);
    if (up < 0) return up;
    *remote = 1;
    *translation = s->translation_accum;
    return s->am_hit + up;
}

/* ProtocolEngine._traced: with a tracer attached, one demand
 * transaction runs inside a protocol.fetch / protocol.upgrade span */
static int64_t demand(FastSim *s, int upgrade_only, int node, int64_t addr, int is_write,
                      int64_t now, int *remote, int64_t *translation) {
    if (!s->trace) {
        return upgrade_only ? engine_upgrade_for_write(s, node, addr, now, remote, translation)
                            : engine_fetch(s, node, addr, is_write, now, remote, translation);
    }
    Trace *tr = &s->tr;
    int64_t block = addr & s->am_block_mask;
    int64_t b[4] = {node, tr->cfg[is_write ? TC_TRUE : TC_FALSE], block, home_of(s, block)};
    tr_open(tr, (int)tr->cfg[upgrade_only ? TC_UPGRADE : TC_FETCH], now, b, 4);
    int64_t cycles = upgrade_only
                         ? engine_upgrade_for_write(s, node, addr, now, remote, translation)
                         : engine_fetch(s, node, addr, is_write, now, remote, translation);
    if (cycles < 0) return cycles; /* the span stays open, as after a scalar raise */
    int64_t e[2] = {tr->cfg[*remote ? TC_TRUE : TC_FALSE], *translation};
    tr_close(tr, now + cycles, e, 2);
    return cycles;
}

/* ------------------------------------------------------------------ */
/* the node (Node._process + fills + attribution)                      */
/* ------------------------------------------------------------------ */
static int node_fill_flc(FastSim *s, int node, int64_t flc_addr) {
    Lru *flc = &s->flc[node];
    int64_t block = flc_addr & flc->block_mask;
    int64_t set = lru_set_of(flc, block);
    int way = lru_find(flc, set, block);
    if (way >= 0) {
        /* refresh; FLC state is always CLEAN_SHARED so max() is a no-op */
        lru_touch(flc, set, way);
        return 0;
    }
    if (flc->count[set] >= flc->assoc) {
        lru_remove_at(flc, set, 0); /* victims always clean */
    }
    lru_append(flc, set, block, ST_CLEAN_SHARED);
    return 0;
}

static int node_fill_slc(FastSim *s, int node, int64_t slc_addr, int64_t proto_addr, int dirty) {
    uint8_t state;
    if (dirty) {
        state = ST_DIRTY;
    } else {
        state = (am_state_of(s, node, proto_addr) == AM_EXCLUSIVE) ? ST_CLEAN_EXCLUSIVE
                                                                   : ST_CLEAN_SHARED;
    }
    Lru *slc = &s->slc[node];
    int64_t block = slc_addr & slc->block_mask;
    int64_t set = lru_set_of(slc, block);
    int way = lru_find(slc, set, block);
    if (way >= 0) {
        uint8_t old = slc->states[set * slc->assoc + way];
        lru_touch(slc, set, way);
        slc->states[set * slc->assoc + slc->count[set] - 1] = old > state ? old : state;
        return 0;
    }
    int64_t victim_block = 0;
    uint8_t victim_state = 0;
    int have_victim = 0;
    if (slc->count[set] >= slc->assoc) {
        victim_block = slc->blocks[set * slc->assoc];
        victim_state = slc->states[set * slc->assoc];
        lru_remove_at(slc, set, 0);
        have_victim = 1;
    }
    lru_append(slc, set, block, state);
    if (!have_victim) return 0;
    int err = 0;
    int64_t flc_base = slc_to_flc(s, victim_block, &err);
    if (err) return err;
    Lru *flc = &s->flc[node];
    lru_invalidate_span(flc, flc_base, 1LL << slc->block_shift, 1LL << flc->block_shift);
    if (victim_state == ST_DIRTY) {
        return node_write_back(s, node, victim_block);
    }
    return 0;
}

/* Node._process: returns stall + tlb cycles or negative error */
static int64_t node_process(FastSim *s, int node, int is_write, int64_t vaddr, int64_t now) {
    int err = 0;
    int64_t vpn = vaddr >> s->page_bits;
    int64_t tlb = 0;
    if (s->capture) cap_feed(s, SW_L0, node, vpn);
    if (s->tap == TAP_L0) tlb += translate(s, node, vpn);
    int64_t paddr = s->needs_physical ? to_phys(s, vaddr, &err) : vaddr;
    if (err) return err;
    int64_t flc_addr = s->virtual_flc ? vaddr : paddr;
    int64_t slc_addr = s->virtual_slc ? vaddr : paddr;
    int64_t proto_addr = s->virtual_am ? vaddr : paddr;
    int64_t stall = 0;

    Lru *flc = &s->flc[node];
    Lru *slc = &s->slc[node];

    if (!is_write) {
        cadd(s, node, C_READS, 1);
        /* flc.lookup */
        int64_t fblock = flc_addr & flc->block_mask;
        int64_t fset = lru_set_of(flc, fblock);
        int fway = lru_find(flc, fset, fblock);
        if (fway >= 0) {
            flc->hits++;
            lru_touch(flc, fset, fway);
        } else {
            flc->misses++;
            if (s->capture) cap_feed(s, SW_L1, node, vpn);
            if (s->tap == TAP_L1) tlb += translate(s, node, vpn);
            /* slc.lookup */
            int64_t sblock = slc_addr & slc->block_mask;
            int64_t sset = lru_set_of(slc, sblock);
            int sway = lru_find(slc, sset, sblock);
            if (sway >= 0) {
                slc->hits++;
                lru_touch(slc, sset, sway);
                stall += s->slc_hit;
                s->loc_stall[node] += s->slc_hit;
            } else {
                slc->misses++;
                if (s->capture) {
                    cap_feed(s, SW_L2, node, vpn);
                    cap_feed(s, SW_L2NW, node, vpn);
                }
                if (s->tap == TAP_L2) tlb += translate(s, node, vpn);
                int remote = 0;
                int64_t translation = 0;
                int64_t cycles = demand(s, 0, node, proto_addr, 0, now + stall + tlb,
                                        &remote, &translation);
                if (cycles < 0) return cycles;
                stall += cycles;
                /* _attribute */
                s->tlb_stall[node] += translation;
                if (remote) {
                    s->rem_stall[node] += cycles - translation;
                    cadd(s, node, C_REMOTE_ACCESSES, 1);
                } else {
                    s->loc_stall[node] += cycles - translation;
                    cadd(s, node, C_AM_LOCAL_ACCESSES, 1);
                }
                int rc = node_fill_slc(s, node, slc_addr, proto_addr, 0);
                if (rc) return rc;
            }
            int rc = node_fill_flc(s, node, flc_addr);
            if (rc) return rc;
        }
    } else {
        cadd(s, node, C_WRITES, 1);
        /* flc.lookup: write-through, no-write-allocate */
        int64_t fblock = flc_addr & flc->block_mask;
        int64_t fset = lru_set_of(flc, fblock);
        int fway = lru_find(flc, fset, fblock);
        if (fway >= 0) {
            flc->hits++;
            lru_touch(flc, fset, fway);
        } else {
            flc->misses++;
        }
        if (s->capture) cap_feed(s, SW_L1, node, vpn);
        if (s->tap == TAP_L1) tlb += translate(s, node, vpn);
        /* slc.state_of + lookup */
        int64_t sblock = slc_addr & slc->block_mask;
        int64_t sset = lru_set_of(slc, sblock);
        int sway = lru_find(slc, sset, sblock);
        if (sway < 0) {
            slc->misses++; /* slc.lookup counting the miss */
            if (s->capture) {
                cap_feed(s, SW_L2, node, vpn);
                cap_feed(s, SW_L2NW, node, vpn);
            }
            if (s->tap == TAP_L2) tlb += translate(s, node, vpn);
            int remote = 0;
            int64_t translation = 0;
            int64_t cycles = demand(s, 0, node, proto_addr, 1, now + stall + tlb,
                                    &remote, &translation);
            if (cycles < 0) return cycles;
            stall += cycles;
            s->tlb_stall[node] += translation;
            if (remote) {
                s->rem_stall[node] += cycles - translation;
                cadd(s, node, C_REMOTE_ACCESSES, 1);
            } else {
                s->loc_stall[node] += cycles - translation;
                cadd(s, node, C_AM_LOCAL_ACCESSES, 1);
            }
            int rc = node_fill_slc(s, node, slc_addr, proto_addr, 1);
            if (rc) return rc;
        } else {
            uint8_t state = slc->states[sset * slc->assoc + sway];
            slc->hits++; /* slc.lookup hit (refresh LRU) */
            lru_touch(slc, sset, sway);
            sway = slc->count[sset] - 1; /* now at the back */
            stall += s->slc_hit;
            s->loc_stall[node] += s->slc_hit;
            if (state == ST_CLEAN_SHARED) {
                if (s->capture) {
                    cap_feed(s, SW_L2, node, vpn);
                    cap_feed(s, SW_L2NW, node, vpn);
                }
                if (s->tap == TAP_L2) tlb += translate(s, node, vpn);
                int remote = 0;
                int64_t translation = 0;
                int64_t cycles = demand(s, 1, node, proto_addr, 1, now + stall + tlb,
                                        &remote, &translation);
                if (cycles < 0) return cycles;
                stall += cycles;
                s->tlb_stall[node] += translation;
                if (remote) {
                    s->rem_stall[node] += cycles - translation;
                    cadd(s, node, C_REMOTE_ACCESSES, 1);
                } else {
                    s->loc_stall[node] += cycles - translation;
                    cadd(s, node, C_AM_LOCAL_ACCESSES, 1);
                }
                /* protocol work never moves this node's SLC ways */
            }
            slc->states[sset * slc->assoc + sway] = ST_DIRTY;
        }
    }
    s->tlb_stall[node] += tlb;
    return stall + tlb;
}

/* Node.reference: histogram + relaxed-store handling */
static int64_t node_reference_body(FastSim *s, int node, int is_write, int64_t vaddr,
                                   int64_t now) {
    if (is_write && s->relaxed) {
        int64_t loc = s->loc_stall[node];
        int64_t rem = s->rem_stall[node];
        int64_t tlb = s->tlb_stall[node];
        int64_t cycles = node_process(s, node, 1, vaddr, now);
        if (cycles < 0) return cycles;
        s->loc_stall[node] = loc;
        s->rem_stall[node] = rem;
        s->tlb_stall[node] = tlb;
        cadd(s, node, C_HIDDEN_STORE_CYCLES, cycles);
        hist_record(s->wh_buckets + node * N_HIST_BUCKETS, &s->wh_count[node],
                    &s->wh_total[node], 0);
        return 0;
    }
    int64_t cycles = node_process(s, node, is_write, vaddr, now);
    if (cycles < 0) return cycles;
    if (is_write) {
        hist_record(s->wh_buckets + node * N_HIST_BUCKETS, &s->wh_count[node],
                    &s->wh_total[node], cycles);
    } else {
        hist_record(s->rh_buckets + node * N_HIST_BUCKETS, &s->rh_count[node],
                    &s->rh_total[node], cycles);
    }
    return cycles;
}

/* Node.reference, wrapped in a "ref" span when traced (Node._traced_reference) */
static int64_t node_reference(FastSim *s, int node, int is_write, int64_t vaddr, int64_t now) {
    if (!s->trace) return node_reference_body(s, node, is_write, vaddr, now);
    Trace *tr = &s->tr;
    int64_t tlb_before = s->tlb_stall[node];
    int64_t b[3] = {node, tr->cfg[is_write ? TC_WRITE : TC_READ], vaddr >> s->page_bits};
    tr_open(tr, (int)tr->cfg[TC_REF], now, b, 3);
    int64_t cycles = node_reference_body(s, node, is_write, vaddr, now);
    if (cycles < 0) return cycles;
    int64_t e[2] = {cycles, s->tlb_stall[node] - tlb_before};
    tr_close(tr, now + cycles, e, 2);
    return cycles;
}

/* ------------------------------------------------------------------ */
/* public API                                                          */
/* ------------------------------------------------------------------ */
void fs_destroy(FastSim *s);

FastSim *fs_create(const int64_t *geom) {
    FastSim *s = (FastSim *)calloc(1, sizeof(FastSim));
    if (!s) return 0;
    s->nodes = geom[GEOM_NODES];
    s->think = geom[GEOM_THINK];
    s->page_bits = (int)geom[GEOM_PAGE_BITS];
    s->block_bits = (int)geom[GEOM_BLOCK_BITS];
    s->node_bits = bit_length32((uint32_t)s->nodes) - 1;
    s->page_mask = (1LL << s->page_bits) - 1;
    s->node_mask = s->nodes - 1;
    s->am_block = geom[GEOM_AM_BLOCK];
    s->am_block_mask = ~(s->am_block - 1);
    s->slc_hit = geom[GEOM_SLC_HIT];
    s->am_hit = geom[GEOM_AM_HIT];
    s->req_cycles = geom[GEOM_REQ_CYCLES];
    s->blk_cycles = geom[GEOM_BLK_CYCLES];
    s->dir_latency = geom[GEOM_DIR_LATENCY];
    s->penalty = geom[GEOM_PENALTY];
    s->req_payload = geom[GEOM_REQ_PAYLOAD];
    s->blk_payload = geom[GEOM_BLK_PAYLOAD];
    s->virtual_flc = (int)geom[GEOM_VIRTUAL_FLC];
    s->virtual_slc = (int)geom[GEOM_VIRTUAL_SLC];
    s->virtual_am = (int)geom[GEOM_VIRTUAL_AM];
    s->needs_physical = !(s->virtual_flc && s->virtual_slc && s->virtual_am);
    s->relaxed = (int)geom[GEOM_RELAXED];
    s->tap = (int)geom[GEOM_TAP];
    s->include_l2_wb = (int)geom[GEOM_INCLUDE_L2_WB];
    s->max_refs = geom[GEOM_MAX_REFS];
    s->contention = (int)geom[GEOM_CONTENTION];

    int64_t nodes = s->nodes;
    s->flc = (Lru *)calloc(nodes, sizeof(Lru));
    s->slc = (Lru *)calloc(nodes, sizeof(Lru));
    s->am = (Lru *)calloc(nodes, sizeof(Lru));
    s->dir_lookups = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->node_ctr = (int64_t *)calloc(nodes * N_NODE_CTR, sizeof(int64_t));
    s->node_calls = (int64_t *)calloc(nodes * N_NODE_CTR, sizeof(int64_t));
    s->loc_stall = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->rem_stall = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->tlb_stall = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->rh_buckets = (int64_t *)calloc(nodes * N_HIST_BUCKETS, sizeof(int64_t));
    s->wh_buckets = (int64_t *)calloc(nodes * N_HIST_BUCKETS, sizeof(int64_t));
    s->rh_count = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->rh_total = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->wh_count = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->wh_total = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->ops = (const uint8_t **)calloc(nodes, sizeof(void *));
    s->vals = (const int64_t **)calloc(nodes, sizeof(void *));
    s->slen = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->pos = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->clock = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->refs_done = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->port_free_at = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->finished = (uint8_t *)calloc(nodes, sizeof(uint8_t));
    s->cand = (int32_t *)calloc(nodes, sizeof(int32_t));
    s->sync = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->at_bar = (uint8_t *)calloc(nodes, sizeof(uint8_t));
    s->bar_of = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->bar_at = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->bar_ids = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->bar_count = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->lq_next = (int32_t *)calloc(nodes, sizeof(int32_t));
    s->lq_at = (int64_t *)calloc(nodes, sizeof(int64_t));
    s->active = nodes;
    /* Any failed calloc above, or any init below, releases the whole
       partially-built struct (fs_destroy tolerates NULL members), so a
       NULL return never leaks. */
    if (!s->flc || !s->slc || !s->am || !s->dir_lookups || !s->node_ctr ||
        !s->node_calls || !s->loc_stall || !s->rem_stall || !s->tlb_stall ||
        !s->rh_buckets || !s->wh_buckets || !s->rh_count || !s->rh_total ||
        !s->wh_count || !s->wh_total || !s->ops || !s->vals || !s->slen ||
        !s->pos || !s->clock || !s->refs_done || !s->port_free_at ||
        !s->finished || !s->cand || !s->sync || !s->at_bar || !s->bar_of ||
        !s->bar_at || !s->bar_ids || !s->bar_count || !s->lq_next || !s->lq_at) {
        fs_destroy(s);
        return 0;
    }

    for (int64_t n = 0; n < nodes; n++) {
        if (lru_init(&s->flc[n], geom[GEOM_FLC_SETS], geom[GEOM_FLC_ASSOC], geom[GEOM_FLC_BLOCK]) ||
            lru_init(&s->slc[n], geom[GEOM_SLC_SETS], geom[GEOM_SLC_ASSOC], geom[GEOM_SLC_BLOCK]) ||
            lru_init(&s->am[n], geom[GEOM_AM_SETS], geom[GEOM_AM_ASSOC], s->am_block)) {
            fs_destroy(s);
            return 0;
        }
    }
    int swords = (int)((nodes + 63) / 64);
    if (dir_init(&s->dir, geom[GEOM_DIR_CAPACITY], swords) ||
        map_init(&s->vpn2pfn, geom[GEOM_MAP_CAPACITY]) ||
        map_init(&s->pfn2vpn, geom[GEOM_MAP_CAPACITY])) {
        fs_destroy(s);
        return 0;
    }

    s->ntlb = 0;
    if (s->tap != TAP_NONE) {
        s->ntlb = (int)nodes;
        s->tlbs = (Tlb *)calloc(s->ntlb, sizeof(Tlb));
        if (!s->tlbs) {
            s->ntlb = 0;
            fs_destroy(s);
            return 0;
        }
        for (int i = 0; i < s->ntlb; i++) {
            if (tlb_init(&s->tlbs[i], geom[GEOM_TLB_ENTRIES], geom[GEOM_TLB_SETS],
                         geom[GEOM_TLB_ASSOC])) {
                fs_destroy(s);
                return 0;
            }
        }
    }
    if (heap_init(&s->heap, (int)(nodes * 2 + 8))) {
        fs_destroy(s);
        return 0;
    }
    for (int64_t n = 0; n < nodes; n++) {
        heap_push(&s->heap, 0, (int32_t)n);
    }
    return s;
}

void fs_destroy(FastSim *s) {
    /* Must also release partially-built structs from a failed
       fs_create: every per-node array may be NULL, and zeroed members
       free cleanly (free(NULL) is a no-op everywhere below). */
    if (!s) return;
    for (int64_t n = 0; s->flc && n < s->nodes; n++) lru_free(&s->flc[n]);
    for (int64_t n = 0; s->slc && n < s->nodes; n++) lru_free(&s->slc[n]);
    for (int64_t n = 0; s->am && n < s->nodes; n++) lru_free(&s->am[n]);
    free(s->flc);
    free(s->slc);
    free(s->am);
    dir_free(&s->dir);
    map_free(&s->vpn2pfn);
    map_free(&s->pfn2vpn);
    if (s->tlbs) {
        for (int i = 0; i < s->ntlb; i++) tlb_free(&s->tlbs[i]);
        free(s->tlbs);
    }
    heap_free(&s->heap);
    free(s->dir_lookups);
    free(s->node_ctr);
    free(s->node_calls);
    free(s->loc_stall);
    free(s->rem_stall);
    free(s->tlb_stall);
    free(s->rh_buckets);
    free(s->wh_buckets);
    free(s->rh_count);
    free(s->rh_total);
    free(s->wh_count);
    free(s->wh_total);
    free(s->ops);
    free(s->vals);
    free(s->slen);
    free(s->pos);
    free(s->clock);
    free(s->refs_done);
    free(s->port_free_at);
    free(s->finished);
    if (s->caps) {
        for (int64_t i = 0; i < N_SWEEP_TAPS * s->nodes; i++) free(s->caps[i].data);
        free(s->caps);
    }
    free(s->cand);
    free(s->sync);
    free(s->at_bar);
    free(s->bar_of);
    free(s->bar_at);
    free(s->bar_ids);
    free(s->bar_count);
    free(s->lq_next);
    free(s->lq_at);
    locks_free(&s->locks);
    free(s->tr.buf);
    free(s);
}

/* ---- snapshot loading ---- */
void fs_set_stream(FastSim *s, int node, const uint8_t *ops, const int64_t *vals, int64_t len) {
    s->ops[node] = ops;
    s->vals[node] = vals;
    s->slen[node] = len;
}

/* Machine._preload's image: ProtocolEngine.preload_block over every
 * block of every page, in the placement's page order.  ppns[i] is the
 * protocol page of vpns[i] (the VPN itself on virtual-AM schemes, the
 * PFN otherwise).  A block's master copy goes to the first node, from
 * its home onward, whose AM set has a free way; nothing is drawn from
 * any RNG.  Physical-AM runs also get the vpn <-> pfn maps.  Each
 * block counts one directory lookup, as Directory.entry() does. */
int fs_preload(FastSim *s, const int64_t *vpns, const int64_t *ppns, int64_t npages) {
    int64_t blocks = ((int64_t)1 << s->page_bits) / s->am_block;
    for (int64_t i = 0; i < npages; i++) {
        if (!s->virtual_am && (map_put(&s->vpn2pfn, vpns[i], ppns[i]) ||
                               map_put(&s->pfn2vpn, ppns[i], vpns[i])))
            return FS_ERR_INTERNAL;
        int64_t base = ppns[i] << s->page_bits;
        for (int64_t b = 0; b < blocks; b++) {
            int64_t block = base + b * s->am_block;
            int home = home_of(s, block);
            int64_t slot = dir_entry(s, home, block);
            if (slot < 0) return (int)slot;
            if (s->dir.owner[slot] >= 0) continue;
            int placed = 0;
            for (int64_t offset = 0; offset < s->nodes && !placed; offset++) {
                int target = (int)((home + offset) & s->node_mask);
                Lru *am = &s->am[target];
                int64_t set = lru_set_of(am, block);
                if (am->count[set] < am->assoc) {
                    lru_append(am, set, block, AM_MASTER_SHARED);
                    s->dir.owner[slot] = target;
                    placed = 1;
                }
            }
            if (!placed) return FS_ERR_CAPACITY;
        }
    }
    return 0;
}

void fs_seed_engine(FastSim *s, const uint32_t *state) {
    mt_load(&s->engine_rng, state);
}

void fs_seed_tlb(FastSim *s, int idx, const uint32_t *state) {
    mt_load(&s->tlbs[idx].rng, state);
}

/* ---- tap-stream capture (uncoupled sweep mode) ---- */
int fs_set_capture(FastSim *s) {
    s->caps = (Cap *)calloc((size_t)(N_SWEEP_TAPS * s->nodes), sizeof(Cap));
    s->capture = s->caps != NULL;
    return s->caps ? 0 : FS_ERR_INTERNAL;
}

int64_t fs_cap_count(FastSim *s, int tap, int node) {
    return s->caps ? s->caps[tap * s->nodes + node].len : 0;
}

/* The captured column of (tap, node), *width bytes per page.  The
 * first export narrows the column in place to 4-byte entries when every
 * page is below 2**32 -- recorded columns are stored narrow when they
 * fit -- and ends the capture: nothing is appended afterwards. */
const void *fs_cap_data(FastSim *s, int tap, int node, int *width) {
    *width = 8;
    if (!s->caps) return NULL;
    s->capture = 0;
    Cap *c = &s->caps[tap * s->nodes + node];
    if (!c->width) {
        int64_t i = 0;
        while (i < c->len && (uint64_t)c->data[i] <= UINT32_MAX) i++;
        c->width = i == c->len ? 4 : 8;
        /* Entry i's 4 bytes land at or below entry i's own 8, so every
           entry is read before anything overwrites it. */
        for (i = 0; c->width == 4 && i < c->len; i++) {
            uint32_t page = (uint32_t)c->data[i];
            memcpy((char *)c->data + 4 * i, &page, sizeof page);
        }
    }
    *width = c->width;
    return c->data;
}

/* ---- packed trace records (coupled timing runs) ---- */
void fs_set_trace(FastSim *s, const int64_t *cfg) {
    Trace *tr = &s->tr;
    memcpy(tr->cfg, cfg, sizeof(tr->cfg));
    tr->limit = cfg[TC_LIMIT];
    tr->fail_growth = (int)cfg[TC_FAIL_GROWTH];
    tr->top = cfg[TC_PARENT];
    s->trace = 1;
}

/* the tracer's span-id counter and last seen time, before C emits */
void fs_trace_sync(FastSim *s, int64_t next_id, int64_t last_time) {
    s->tr.next_id = next_id;
    s->tr.last_time = last_time;
}

/* Hands the buffered records to the caller, who must copy them before
 * the next call into the engine (the buffer is reused).  state receives
 * [bytes, next span id, last seen time, open spans]. */
const char *fs_trace_take(FastSim *s, int64_t *state) {
    Trace *tr = &s->tr;
    state[0] = tr->len;
    state[1] = tr->next_id;
    state[2] = tr->last_time;
    state[3] = tr->depth;
    tr->len = 0;
    return (const char *)tr->buf;
}

/* Open span i (outermost first) after an engine error: [codec, id,
 * parent, t0, nvals, packed begin values...] */
void fs_trace_open_span(FastSim *s, int i, int64_t *out) {
    const TrSpan *sp = &s->tr.stack[i];
    out[0] = sp->codec;
    out[1] = sp->id;
    out[2] = sp->parent;
    out[3] = sp->t0;
    out[4] = sp->nvals;
    memcpy(out + 5, sp->vals, 8 * (size_t)sp->nvals);
}

/* ---- run control: Simulator._run_scalar, synchronization included ---- */

/* a lock-word store (acquire, unlock, hand-off): Node.reference(True, word) */
static int64_t lock_store(FastSim *s, int node, int64_t word, int64_t now) {
    int64_t cycles = node_reference(s, node, 1, word, now);
    if (cycles >= 0 && (s->cap_oom || s->tr.oom)) return FS_ERR_INTERNAL;
    return cycles;
}

static inline int wake(FastSim *s, int node, int64_t t) {
    s->clock[node] = t;
    return heap_push(&s->heap, t, (int32_t)node) ? FS_ERR_INTERNAL : 0;
}

/* Simulator._maybe_release_barrier for outstanding barrier b: 1 if it
 * released (and left the outstanding list), 0 if not, < 0 on error */
static int barrier_release(FastSim *s, int64_t b) {
    if (s->bar_count[b] < s->active) return 0;
    int64_t id = s->bar_ids[b], release = 0;
    for (int64_t n = 0; n < s->nodes; n++)
        if (s->at_bar[n] && s->bar_of[n] == id && s->bar_at[n] > release)
            release = s->bar_at[n];
    for (int64_t n = 0; n < s->nodes; n++) {
        if (!s->at_bar[n] || s->bar_of[n] != id) continue;
        s->at_bar[n] = 0;
        s->sync[n] += release - s->bar_at[n];
        if (wake(s, (int)n, release)) return FS_ERR_INTERNAL;
    }
    s->nbar--;
    memmove(s->bar_ids + b, s->bar_ids + b + 1, sizeof(int64_t) * (s->nbar - b));
    memmove(s->bar_count + b, s->bar_count + b + 1, sizeof(int64_t) * (s->nbar - b));
    return 1;
}

static int barrier_arrive(FastSim *s, int n, int64_t id, int64_t now, int64_t *out) {
    s->barriers++;
    if (s->trace) {
        int64_t v[2] = {n, id};
        tr_event(&s->tr, (int)s->tr.cfg[TC_BARRIER], now, v, 2);
    }
    if (s->at_bar[n]) {
        /* Unreachable: a waiting node is off the heap.  The second
           arrival mirrors the scalar engine's check. */
        if (s->bar_of[n] != id) return FS_ERR_INTERNAL;
        out[0] = n;
        out[1] = id;
        return FS_ERR_BARRIER_TWICE;
    }
    int64_t b = 0;
    while (b < s->nbar && s->bar_ids[b] != id) b++;
    if (b == s->nbar) {
        s->bar_ids[b] = id;
        s->bar_count[b] = 0;
        s->nbar++;
    }
    s->bar_count[b]++;
    s->at_bar[n] = 1;
    s->bar_of[n] = id;
    s->bar_at[n] = now;
    s->clock[n] = now;
    int released = barrier_release(s, b);
    return released < 0 ? released : 0;
}

static int lock_acquire(FastSim *s, int n, int64_t word, int64_t now) {
    Locks *lk = &s->locks;
    int l = lock_find(lk, word);
    if (l >= 0 && lk->holder[l] >= 0) { /* queue behind the holder */
        s->lq_next[n] = -1;
        s->lq_at[n] = now;
        if (lk->tail[l] < 0) lk->head[l] = n;
        else s->lq_next[lk->tail[l]] = n;
        lk->tail[l] = n;
        return 0;
    }
    if (l < 0 && (l = lock_add(lk, word)) < 0) return FS_ERR_INTERNAL;
    lk->holder[l] = n;
    if (s->trace) {
        int64_t v[2] = {n, word};
        tr_event(&s->tr, (int)s->tr.cfg[TC_LOCK], now, v, 2);
    }
    int64_t stall = lock_store(s, n, word, now);
    if (stall < 0) return (int)stall;
    return wake(s, n, now + stall);
}

/* the head of lock l's queue, removed; -1 when nobody waits */
static int lock_dequeue(Locks *lk, const int32_t *next, int l) {
    int waiter = lk->head[l];
    if (waiter >= 0) {
        lk->head[l] = next[waiter];
        if (lk->head[l] < 0) lk->tail[l] = -1;
    }
    return waiter;
}

static int lock_release(FastSim *s, int n, int64_t word, int64_t now, int64_t *out) {
    Locks *lk = &s->locks;
    int l = lock_find(lk, word);
    int holder = l < 0 ? -1 : lk->holder[l];
    if (holder != n) {
        out[0] = n;
        out[1] = word;
        out[2] = holder;
        return FS_ERR_UNLOCK;
    }
    int64_t stall = lock_store(s, n, word, now);
    if (stall < 0) return (int)stall;
    int64_t release = now + stall;
    if (wake(s, n, release)) return FS_ERR_INTERNAL;
    int waiter = lock_dequeue(lk, s->lq_next, l);
    lk->holder[l] = waiter;
    if (waiter < 0) return 0;
    s->sync[waiter] += release - s->lq_at[waiter];
    stall = lock_store(s, waiter, word, release);
    if (stall < 0) return (int)stall;
    return wake(s, waiter, release + stall);
}

/* the node's stream ended or hit max_refs: it leaves the run, handing
 * each lock it holds to the first waiter (no lock-word store), and
 * counts as arrived at every outstanding barrier */
static int node_finish(FastSim *s, int n, int64_t now) {
    Locks *lk = &s->locks;
    s->finished[n] = 1;
    s->clock[n] = now;
    s->active--;
    for (int l = 0; l < lk->n; l++) {
        if (lk->holder[l] != n) continue;
        int waiter = lock_dequeue(lk, s->lq_next, l);
        lk->holder[l] = waiter;
        if (waiter < 0) continue;
        int64_t arrival = s->lq_at[waiter];
        s->sync[waiter] += now > arrival ? now - arrival : 0;
        if (heap_push(&s->heap, now > arrival ? now : arrival, waiter))
            return FS_ERR_INTERNAL;
    }
    for (int64_t b = 0; b < s->nbar;) {
        int released = barrier_release(s, b);
        if (released < 0) return released;
        if (!released) b++;
    }
    return 0;
}

/* Runs until the heap drains: out[0] = end time, out[1] = barriers.
 * Every node's idle tail is charged to sync, as the scalar engine's
 * final implicit barrier does.  Errors leave their detail in out. */
int fs_run(FastSim *s, int64_t *out) {
    Heap *h = &s->heap;
    const int64_t think = s->think;
    while (h->len) {
        int64_t now;
        int32_t n;
        heap_pop(h, &now, &n);
        if (s->finished[n]) continue;
        if ((s->max_refs >= 0 && s->refs_done[n] >= s->max_refs) || s->pos[n] >= s->slen[n]) {
            int status = node_finish(s, n, now);
            if (status) return status;
            continue;
        }
        uint8_t op = s->ops[n][s->pos[n]];
        int64_t value = s->vals[n][s->pos[n]++];
        int status = 0;
        if (op <= 1) {
            int64_t stall = node_reference(s, n, op, value, now + think);
            if (stall < 0) return (int)stall;
            if (s->cap_oom) return FS_ERR_INTERNAL;
            int64_t t = now + think + stall;
            s->clock[n] = t;
            s->refs_done[n]++;
            if (heap_push(h, t, n)) return FS_ERR_INTERNAL;
            if (s->trace) {
                Trace *tr = &s->tr;
                int64_t every = tr->cfg[TC_PHASE_EVERY];
                tr->total_refs++;
                if (every && tr->total_refs % every == 0)
                    tr_event(tr, (int)tr->cfg[TC_PHASE], t, &tr->total_refs, 1);
            }
        } else if (op == REF_BARRIER) {
            status = barrier_arrive(s, n, value, now, out);
        } else if (op == REF_LOCK) {
            status = lock_acquire(s, n, value, now);
        } else if (op == REF_UNLOCK) {
            status = lock_release(s, n, value, now, out);
        } else {
            out[0] = op;
            return FS_ERR_OPCODE;
        }
        if (status) return status;
        if (s->trace) {
            if (s->tr.oom) return FS_ERR_INTERNAL;
            if (s->tr.len >= s->tr.limit) return FS_TRACE_FULL;
        }
    }
    if (s->nbar) return FS_ERR_DEADLOCK;
    for (int l = 0; l < s->locks.n; l++)
        if (s->locks.holder[l] >= 0) return FS_ERR_LOCKS_HELD;
    int64_t end = 0;
    for (int64_t n = 0; n < s->nodes; n++)
        if (s->clock[n] > end) end = s->clock[n];
    for (int64_t n = 0; n < s->nodes; n++) s->sync[n] += end - s->clock[n];
    out[0] = end;
    out[1] = s->barriers;
    return FS_DONE;
}

/* The list behind FS_ERR_DEADLOCK (outstanding barrier ids, ascending)
 * or FS_ERR_LOCKS_HELD (held lock words, first-acquisition order);
 * returns its length and, when out is not NULL, writes it there. */
int64_t fs_sync_words(FastSim *s, int64_t *out) {
    int64_t count = 0;
    if (s->nbar) {
        for (int64_t b = 0; b < s->nbar; b++) {
            int64_t id = s->bar_ids[b], i = b;
            if (out) {
                while (i > 0 && out[i - 1] > id) {
                    out[i] = out[i - 1];
                    i--;
                }
                out[i] = id;
            }
        }
        return s->nbar;
    }
    for (int l = 0; l < s->locks.n; l++) {
        if (s->locks.holder[l] < 0) continue;
        if (out) out[count] = s->locks.word[l];
        count++;
    }
    return count;
}

/* ---- summary accessors ---- */
void fs_export_global(FastSim *s, int64_t *values, int64_t *calls) {
    memcpy(values, s->glob, sizeof(s->glob));
    memcpy(calls, s->glob_calls, sizeof(s->glob_calls));
}

void fs_export_node_counters(FastSim *s, int node, int64_t *values, int64_t *calls) {
    memcpy(values, s->node_ctr + node * N_NODE_CTR, N_NODE_CTR * sizeof(int64_t));
    memcpy(calls, s->node_calls + node * N_NODE_CTR, N_NODE_CTR * sizeof(int64_t));
}

/* [loc_stall, rem_stall, tlb_stall, sync, refs done] */
void fs_export_breakdown(FastSim *s, int node, int64_t *out) {
    out[0] = s->loc_stall[node];
    out[1] = s->rem_stall[node];
    out[2] = s->tlb_stall[node];
    out[3] = s->sync[node];
    out[4] = s->refs_done[node];
}

void fs_export_hist(FastSim *s, int node, int is_write, int64_t *buckets, int64_t *count_total) {
    memcpy(buckets, (is_write ? s->wh_buckets : s->rh_buckets) + node * N_HIST_BUCKETS,
           N_HIST_BUCKETS * sizeof(int64_t));
    count_total[0] = (is_write ? s->wh_count : s->rh_count)[node];
    count_total[1] = (is_write ? s->wh_total : s->rh_total)[node];
}

/* TLB/DLB `idx`'s [accesses, misses] */
void fs_export_tlb(FastSim *s, int idx, int64_t *stats) {
    stats[0] = s->tlbs[idx].accesses;
    stats[1] = s->tlbs[idx].misses;
}

/* ---- the final machine image (the differential oracle's view) ---- */
typedef struct {
    int64_t *out, cap, k; /* k: the words the image needs so far */
} Image;

static inline void img_put(Image *m, int64_t v) {
    if (m->k < m->cap) m->out[m->k] = v;
    m->k++;
}

/* sets, hits, misses, then per set its length and (block, state) pairs */
static void img_lru(Image *m, const Lru *c) {
    img_put(m, c->sets);
    img_put(m, c->hits);
    img_put(m, c->misses);
    for (int64_t set = 0; set < c->sets; set++) {
        img_put(m, c->count[set]);
        for (int i = 0; i < c->count[set]; i++) {
            img_put(m, c->blocks[set * c->assoc + i]);
            img_put(m, c->states[set * c->assoc + i]);
        }
    }
}

/* random.Random.getstate()'s 625 words: mt[624] + index */
static void img_rng(Image *m, const MT *r) {
    for (int i = 0; i < MT_N; i++) img_put(m, r->mt[i]);
    img_put(m, r->index);
}

/* The final machine image, flat: nodes, TLB count, page bits and sharer
 * words per directory entry; the engine RNG, the translation
 * accumulator and each port's free time; each node's FLC, SLC and AM;
 * each home's directory lookups, the entry count, then per entry its
 * block, owner (-1 = none) and sharer words; per TLB/DLB its sets,
 * accesses, misses, per set its length and tags, then its RNG.  Writes
 * at most `cap` words and returns the number the image needs. */
int64_t fs_image(FastSim *s, int64_t *out, int64_t cap) {
    Image m = {out, cap, 0};
    int64_t head[] = {s->nodes, s->ntlb, s->page_bits, s->dir.swords};
    for (int i = 0; i < 4; i++) img_put(&m, head[i]);
    img_rng(&m, &s->engine_rng);
    img_put(&m, s->translation_accum);
    for (int64_t n = 0; n < s->nodes; n++) img_put(&m, s->port_free_at[n]);
    for (int64_t n = 0; n < s->nodes; n++) {
        img_lru(&m, &s->flc[n]);
        img_lru(&m, &s->slc[n]);
        img_lru(&m, &s->am[n]);
    }
    for (int64_t n = 0; n < s->nodes; n++) img_put(&m, s->dir_lookups[n]);
    img_put(&m, s->dir.nentries);
    for (int64_t e = 0; e < s->dir.nentries; e++) {
        img_put(&m, s->dir.blocks[e]);
        img_put(&m, s->dir.owner[e]);
        for (int w = 0; w < s->dir.swords; w++)
            img_put(&m, (int64_t)s->dir.sharers[e * s->dir.swords + w]);
    }
    for (int i = 0; i < s->ntlb; i++) {
        const Tlb *t = &s->tlbs[i];
        img_put(&m, t->sets);
        img_put(&m, t->accesses);
        img_put(&m, t->misses);
        for (int64_t set = 0; set < t->sets; set++) {
            img_put(&m, t->len[set]);
            for (int w = 0; w < t->len[set]; w++) img_put(&m, t->tags[set * t->assoc + w]);
        }
        img_rng(&m, &t->rng);
    }
    return m.k;
}

/* selftest hook: n draws of genrand (== getrandbits(32)) from a
 * transferred random.Random state */
void fs_rng_selftest(const uint32_t *state, uint32_t *out, int n) {
    MT r;
    mt_load(&r, state);
    for (int i = 0; i < n; i++) out[i] = mt_genrand(&r);
}

/* selftest hook: random.Random(seed) seeded in C -- its 625-word
 * getstate() image, then n draws of genrand */
void fs_seed_selftest(uint64_t seed, uint32_t *state, uint32_t *out, int n) {
    MT r;
    mt_seed(&r, seed);
    memcpy(state, r.mt, MT_N * sizeof(uint32_t));
    state[MT_N] = (uint32_t)r.index;
    for (int i = 0; i < n; i++) out[i] = mt_genrand(&r);
}

/* selftest hook: shuffle 0..len-1 in place, matching random.shuffle */
void fs_shuffle_selftest(const uint32_t *state, int32_t *arr, int len) {
    MT r;
    mt_load(&r, state);
    mt_shuffle(&r, arr, len);
}

/* ------------------------------------------------------------------ */
/* paper workload streams                                              */
/*                                                                     */
/* C twins of the six registered workloads' node_stream generators     */
/* (repro/workloads/<name>.py), each a statement-for-statement port    */
/* that writes the (op, value) columns materialize_stream would, from  */
/* the numeric recipe the workload's stream_recipe() builds.  They     */
/* draw CPython's exact sequence: random() is genrand_res53,           */
/* randrange(n) is mt_randbelow, and u ** skew is libm pow (the        */
/* recipe bounds skew so pow sets no errno CPython would raise on).    */
/* Every Segment.address bounds check is kept.  A twin never raises    */
/* and never truncates: a failed check or a full buffer returns        */
/* GEN_DECLINE and the Python generator runs instead, raising its own  */
/* error.  Recipe integers are below 2**30 (RECIPE_INT_LIMIT), and     */
/* every offset below is a sum of at most four products of two of      */
/* them, so int64 arithmetic cannot overflow.                          */
/* ------------------------------------------------------------------ */
#define GEN_DECLINE (-1)

/* generator kinds, in timing_kernels.STREAM_KINDS order */
enum { GEN_RADIX, GEN_FFT, GEN_FMM, GEN_OCEAN, GEN_RAYTRACE, GEN_BARNES, GEN_KINDS };

/* the byte granularity of every tree/scene touch in the workloads */
#define GEN_GRANULARITY 64

typedef struct {
    const int64_t *seg; /* (base, size) per segment */
    MT rng;             /* the node's ctx.rng(node) stream */
    uint8_t *ops;
    int64_t *vals;
    int64_t n, cap;
} Gen;

#define SEG_BASE(g, i) ((g)->seg[2 * (i)])
#define SEG_SIZE(g, i) ((g)->seg[2 * (i) + 1])

#define EMIT(g, op, v)                              \
    do {                                            \
        if ((g)->n >= (g)->cap) return GEN_DECLINE; \
        (g)->ops[(g)->n] = (uint8_t)(op);           \
        (g)->vals[(g)->n++] = (v);                  \
    } while (0)

/* Segment.address(off) of segment i, emitted */
#define EMIT_AT(g, op, i, off)                                        \
    do {                                                              \
        int64_t off_ = (off);                                         \
        if (off_ < 0 || off_ >= SEG_SIZE(g, i)) return GEN_DECLINE;   \
        EMIT(g, op, SEG_BASE(g, i) + off_);                           \
    } while (0)

/* random.Random.random (genrand_res53) */
static double mt_random(MT *r) {
    uint32_t a = mt_genrand(r) >> 5;
    uint32_t b = mt_genrand(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Slot geometry shared by Workload.zipf_accesses and
 * Workload.tree_walk_accesses with cluster_bytes set. */
typedef struct {
    int64_t base, slots, per_cluster, clusters;
} Slots;

static Slots gen_slots(const Gen *g, int64_t i, int64_t cluster_bytes) {
    Slots sl;
    sl.base = SEG_BASE(g, i);
    sl.slots = SEG_SIZE(g, i) / GEN_GRANULARITY;
    if (sl.slots < 1) sl.slots = 1;
    sl.per_cluster = cluster_bytes / GEN_GRANULARITY;
    if (sl.per_cluster < 1) sl.per_cluster = 1;
    sl.clusters = sl.slots / sl.per_cluster;
    if (sl.clusters < 1) sl.clusters = 1;
    return sl;
}

/* Knuth multiplicative scatter of the slot's cluster index */
static int64_t gen_scatter(const Slots *sl, int64_t slot) {
    int64_t cluster = slot / sl->per_cluster, within = slot % sl->per_cluster;
    cluster = (cluster * 2654435761LL + 40503) % sl->clusters;
    return cluster * sl->per_cluster + within;
}

/* Workload.zipf_accesses(segment i, count, rng, op, 64, skew, cluster_bytes) */
static int gen_zipf(Gen *g, int64_t i, int64_t count, int op, double skew, int64_t cluster_bytes) {
    Slots sl = gen_slots(g, i, cluster_bytes);
    for (int64_t k = 0; k < count; k++) {
        int64_t slot = (int64_t)((double)sl.slots * pow(mt_random(&g->rng), skew));
        if (slot >= sl.slots) slot = sl.slots - 1;
        EMIT(g, op, sl.base + gen_scatter(&sl, slot) * GEN_GRANULARITY);
    }
    return 0;
}

/* Workload.tree_walk_accesses(segment i, ..., 64, descend, cluster_bytes),
 * one touch per walk_next call (the generator is consumed lazily,
 * interleaved with other events) */
typedef struct {
    Slots sl;
    int64_t depth;
    double descend;
} Walk;

static Walk walk_init(const Gen *g, int64_t i, double descend, int64_t cluster_bytes) {
    Walk w;
    w.sl = gen_slots(g, i, cluster_bytes);
    w.depth = bit_length32((uint32_t)w.sl.slots) - 1; /* slots < 2**30 */
    if (w.depth < 1) w.depth = 1;
    w.descend = descend;
    return w;
}

static int64_t walk_next(const Walk *w, MT *r) {
    int64_t level = 0;
    while (level < w->depth - 1 && mt_random(r) < w->descend) level++;
    int64_t first = ((int64_t)1 << level) - 1;
    int64_t width = (int64_t)1 << level;
    if (w->sl.slots - first < width) width = w->sl.slots - first;
    int64_t slot = first + (width > 1 ? (int64_t)mt_randbelow(r, (uint32_t)width) : 0);
    slot = gen_scatter(&w->sl, slot);
    return w->sl.base + (slot % w->sl.slots) * GEN_GRANULARITY;
}

/* RadixWorkload.node_stream */
static int gen_radix(Gen *g, const int64_t *p) {
    enum { KEYS_IN, KEYS_OUT, HISTOGRAM };
    int64_t node = p[0], passes = p[1], keys = p[2], key_bytes = p[3];
    int64_t partition = p[4], my_base = p[5], hist_slots = p[6], buckets = p[7];
    int64_t bucket_slots = p[8], sub_slots = p[9], total_slots = p[10];
    int64_t barrier_id = 0;
    for (int64_t pass = 0; pass < passes; pass++) {
        int64_t offset = my_base;
        for (int64_t i = 0; i < keys; i++) {
            EMIT_AT(g, REF_READ, KEYS_IN, offset);
            offset = my_base + (offset - my_base + key_bytes) % partition;
            if (i % 2 == 0)
                EMIT_AT(g, REF_WRITE, HISTOGRAM,
                        (int64_t)mt_randbelow(&g->rng, (uint32_t)hist_slots) * 8);
        }
        EMIT(g, REF_BARRIER, barrier_id++);

        offset = my_base;
        int64_t base_quota = keys / buckets, remainder = keys % buckets;
        for (int64_t bucket = 0; bucket < buckets; bucket++) {
            int64_t quota = base_quota + (bucket < remainder ? 1 : 0);
            for (int64_t rank = 0; rank < quota; rank++) {
                EMIT_AT(g, REF_READ, KEYS_IN, offset);
                offset = my_base + (offset - my_base + key_bytes) % partition;
                int64_t slot = bucket * bucket_slots + node * sub_slots + rank % sub_slots;
                EMIT_AT(g, REF_WRITE, KEYS_OUT, (slot % total_slots) * key_bytes);
            }
        }
        EMIT(g, REF_BARRIER, barrier_id++);
    }
    return 0;
}

/* FFTWorkload.node_stream */
static int gen_fft(Gen *g, const int64_t *p) {
    enum { MATRIX_A, MATRIX_B };
    int64_t node = p[0], nodes = p[1], stages = p[2], n = p[3];
    int64_t rows_per_node = p[4], row_bytes = p[5], step = p[6], eb = p[7];
    int64_t my_first_row = node * rows_per_node;
    int64_t barrier_id = 0;
    for (int64_t stage = 0; stage < stages; stage++) {
        int src = stage % 2 == 0 ? MATRIX_A : MATRIX_B;
        int dst = stage % 2 == 0 ? MATRIX_B : MATRIX_A;
        for (int64_t row = my_first_row; row < my_first_row + rows_per_node; row++) {
            int64_t base = row * row_bytes;
            for (int64_t col = 0; col < n; col += step) {
                EMIT_AT(g, REF_READ, src, base + col * eb);
                if (col % 2 == 0) EMIT_AT(g, REF_WRITE, src, base + col * eb);
            }
        }
        EMIT(g, REF_BARRIER, barrier_id++);

        int64_t col_slice = rows_per_node;
        for (int64_t band = 0; band < nodes; band++) {
            int64_t src_band = (node + 1 + band) % nodes;
            for (int64_t row = src_band * rows_per_node; row < (src_band + 1) * rows_per_node;
                 row++) {
                /* node * col_slice < n: stream_columns passes node < nodes */
                int64_t read_base = row * row_bytes + node * col_slice * eb;
                for (int64_t j = 0; j < col_slice; j += step) {
                    EMIT_AT(g, REF_READ, src, read_base + j * eb);
                    int64_t dst_row = node * rows_per_node + j;
                    EMIT_AT(g, REF_WRITE, dst, dst_row * row_bytes + row * eb);
                }
            }
        }
        EMIT(g, REF_BARRIER, barrier_id++);
    }
    return 0;
}

/* FMMWorkload.node_stream */
static int gen_fmm(Gen *g, const int64_t *p, const double *r) {
    enum { TREE, PARTICLES };
    const int64_t particle_bytes = 64;
    int64_t iterations = p[0], count = p[1], interactions = p[2];
    int64_t partition = p[3], my_base = p[4], page_size = p[5];
    Walk tree = walk_init(g, TREE, r[0], page_size);
    int64_t barrier_id = 0;
    for (int64_t it = 0; it < iterations; it++) {
        int64_t offset = my_base;
        for (int64_t i = 0; i < count * interactions; i++) {
            EMIT(g, REF_READ, walk_next(&tree, &g->rng));
            if (i % interactions == 0) {
                EMIT_AT(g, REF_READ, PARTICLES, offset);
                offset = my_base + (offset - my_base + particle_bytes) % partition;
            }
        }
        EMIT(g, REF_BARRIER, barrier_id++);

        offset = my_base;
        for (int64_t k = 0; k < count; k++) {
            EMIT_AT(g, REF_READ, PARTICLES, offset);
            EMIT_AT(g, REF_WRITE, PARTICLES, offset);
            offset = my_base + (offset - my_base + particle_bytes) % partition;
        }
        EMIT(g, REF_BARRIER, barrier_id++);
    }
    return 0;
}

/* OceanWorkload.node_stream */
static int gen_ocean(Gen *g, const int64_t *p) {
    int64_t sweeps = p[0], rows = p[1], cols = p[2], band = p[3];
    int64_t my_first = p[4], step = p[5], eb = p[6], row_bytes = p[7];
    int64_t barrier_id = 0;
    for (int64_t sweep = 0; sweep < sweeps; sweep++) {
        int src = (int)(sweep % 2), dst = (int)((sweep + 1) % 2); /* grid_a, grid_b */
        for (int64_t row = my_first; row < my_first + band; row++) {
            int64_t row_base = row * row_bytes;
            int64_t up_base = (row - 1 > 0 ? row - 1 : 0) * row_bytes;
            int64_t down_base = (rows - 1 < row + 1 ? rows - 1 : row + 1) * row_bytes;
            for (int64_t col = 0; col < cols; col += step) {
                int64_t col_off = col * eb;
                EMIT_AT(g, REF_READ, src, row_base + col_off);
                if (col % 4 == 0) {
                    EMIT_AT(g, REF_READ, src, up_base + col_off);
                    EMIT_AT(g, REF_READ, src, down_base + col_off);
                }
                EMIT_AT(g, REF_WRITE, dst, row_base + col_off);
            }
        }
        EMIT(g, REF_BARRIER, barrier_id++);
    }
    return 0;
}

/* RaytraceWorkload.node_stream; segments: scene, task_queue, then the
 * node's stack elements group by group (stack{node}_g{g}_e{i}) */
static int gen_raytrace(Gen *g, const int64_t *p, const double *r) {
    enum { SCENE, QUEUE, STACKS };
    int64_t tasks = p[0], groups = p[1], depth_limit = p[2];
    int64_t rays = p[3], reads = p[4], page_size = p[5];
    double skew = r[0];
    int64_t lock_word = SEG_BASE(g, QUEUE);
    for (int64_t task = 0; task < tasks; task++) {
        int64_t elements = STACKS + (task % groups) * depth_limit;
        EMIT(g, REF_LOCK, lock_word);
        EMIT_AT(g, REF_READ, QUEUE, 64);
        EMIT_AT(g, REF_WRITE, QUEUE, 64);
        EMIT(g, REF_UNLOCK, lock_word);

        int64_t depth = 0;
        for (int64_t ray = 0; ray < rays; ray++) {
            if (gen_zipf(g, SCENE, reads, REF_READ, skew, page_size) < 0) return GEN_DECLINE;
            depth = (depth + 1) % depth_limit;
            int64_t element = elements + depth;
            EMIT_AT(g, REF_WRITE, element, 0);
            EMIT_AT(g, REF_READ, element, 32);
            EMIT_AT(g, REF_WRITE, element, 64);
            if (depth > 0 && mt_random(&g->rng) < 0.5) {
                depth -= 1;
                EMIT_AT(g, REF_WRITE, elements + depth, 0);
            }
        }
    }
    EMIT(g, REF_BARRIER, 0);
    return 0;
}

/* BarnesWorkload.node_stream */
static int gen_barnes(Gen *g, const int64_t *p, const double *r) {
    enum { TREE, BODIES, LOCKS };
    const int64_t body_bytes = 96;
    int64_t timesteps = p[0], count = p[1], partition = p[2], my_base = p[3];
    int64_t walk_reads = p[4], build_locks = p[5], page_size = p[6];
    Walk tree = walk_init(g, TREE, r[0], page_size);
    int64_t tree_base = SEG_BASE(g, TREE);
    int64_t inserts = count / 4 > 1 ? count / 4 : 1;
    int64_t barrier_id = 0;
    for (int64_t ts = 0; ts < timesteps; ts++) {
        int64_t offset = my_base;
        for (int64_t k = 0; k < inserts; k++) {
            int64_t write_addr = walk_next(&tree, &g->rng);
            EMIT_AT(g, REF_READ, BODIES, offset);
            offset = my_base + (offset - my_base + body_bytes) % partition;
            int64_t lock_off = (((write_addr - tree_base) / 64) % build_locks) * 64;
            if (lock_off >= SEG_SIZE(g, LOCKS)) return GEN_DECLINE;
            int64_t lock_word = SEG_BASE(g, LOCKS) + lock_off;
            EMIT(g, REF_LOCK, lock_word);
            EMIT(g, REF_WRITE, write_addr);
            EMIT(g, REF_UNLOCK, lock_word);
        }
        EMIT(g, REF_BARRIER, barrier_id++);

        offset = my_base;
        for (int64_t k = 0; k < count; k++) {
            EMIT_AT(g, REF_READ, BODIES, offset);
            for (int64_t w = 0; w < walk_reads; w++) EMIT(g, REF_READ, walk_next(&tree, &g->rng));
            offset = my_base + (offset - my_base + body_bytes) % partition;
        }
        EMIT(g, REF_BARRIER, barrier_id++);

        offset = my_base;
        for (int64_t k = 0; k < count; k++) {
            EMIT_AT(g, REF_READ, BODIES, offset);
            EMIT_AT(g, REF_WRITE, BODIES, offset);
            offset = my_base + (offset - my_base + body_bytes) % partition;
        }
        EMIT(g, REF_BARRIER, barrier_id++);
    }
    return 0;
}

/* One node's stream of a paper workload into ops/vals (cap events at
 * most): the event count, or GEN_DECLINE.  ints/reals/segs are the
 * recipe (segs as (base, size) pairs); seed is the node's substream
 * seed, seeded like random.Random(seed). */
int64_t fs_stream(int kind, const int64_t *ints, int64_t nints, const double *reals,
                  int64_t nreals, const int64_t *segs, int64_t nsegs, uint64_t seed,
                  uint8_t *ops, int64_t *vals, int64_t cap) {
    /* recipe shape per kind: ints, reals, segments (-1: raytrace's
     * 2 + groups * depth_limit) */
    static const int64_t shape[GEN_KINDS][3] = {
        {11, 0, 3}, {8, 0, 2}, {6, 1, 2}, {8, 0, 2}, {6, 1, -1}, {7, 1, 3},
    };
    if (kind < 0 || kind >= GEN_KINDS) return GEN_DECLINE;
    int64_t want_segs = shape[kind][2];
    if (kind == GEN_RAYTRACE && nints == shape[kind][0]) want_segs = 2 + ints[1] * ints[2];
    if (nints != shape[kind][0] || nreals != shape[kind][1] || nsegs != want_segs)
        return GEN_DECLINE;
    Gen g;
    g.seg = segs;
    mt_seed(&g.rng, seed);
    g.ops = ops;
    g.vals = vals;
    g.n = 0;
    g.cap = cap;
    int status = GEN_DECLINE;
    switch (kind) {
    case GEN_RADIX: status = gen_radix(&g, ints); break;
    case GEN_FFT: status = gen_fft(&g, ints); break;
    case GEN_FMM: status = gen_fmm(&g, ints, reals); break;
    case GEN_OCEAN: status = gen_ocean(&g, ints); break;
    case GEN_RAYTRACE: status = gen_raytrace(&g, ints, reals); break;
    case GEN_BARNES: status = gen_barnes(&g, ints, reals); break;
    }
    return status < 0 ? GEN_DECLINE : g.n;
}

/* ------------------------------------------------------------------ */
/* bank replay over recorded tap streams                               */
/*                                                                     */
/* Pages are relabelled once to dense ids, so a geometry keeps a byte  */
/* residency table: a page lives in exactly one set, so "resident" ==  */
/* "in its set", a hit is one load, and only a miss touches the set's  */
/* ways.  The ways keep TranslationBuffer's layout (fill appends, a    */
/* victim is replaced in place) and victims come from the same         */
/* rejection-sampled getrandbits(assoc.bit_length()) draws, so miss    */
/* counts, contents and RNG position all equal the scalar buffer's.    */
/* ------------------------------------------------------------------ */

/* Open-addressed page -> dense id table for relabelling.  Sized for
 * the longest stream it will see (cap_max >= 2n), but each stream
 * starts at RELABEL_MIN_CAP slots and doubles at half load, so a
 * stream with few distinct pages keeps its table in cache. */
#define RELABEL_MIN_CAP 256

typedef struct {
    int64_t *keys; /* -1 == empty */
    int32_t *ids;
    int64_t cap_max;
} Relabel;

static int relabel_init(Relabel *t, int64_t n) {
    t->cap_max = 16;
    while (t->cap_max < 2 * n) t->cap_max <<= 1;
    t->keys = (int64_t *)malloc(sizeof(int64_t) * t->cap_max);
    t->ids = (int32_t *)malloc(sizeof(int32_t) * t->cap_max);
    return t->keys && t->ids ? 0 : -1;
}

static void relabel_free(Relabel *t) {
    free(t->keys);
    free(t->ids);
}

/* Clear the first cap slots and re-enter page_of[0..unique). */
static void relabel_fill(Relabel *t, int64_t cap, const int64_t *page_of, int64_t unique) {
    const uint64_t mask = (uint64_t)cap - 1;
    for (int64_t i = 0; i < cap; i++) t->keys[i] = -1;
    for (int64_t id = 0; id < unique; id++) {
        uint64_t h = map_hash(page_of[id]) & mask;
        while (t->keys[h] != -1) h = (h + 1) & mask;
        t->keys[h] = page_of[id];
        t->ids[h] = (int32_t)id;
    }
}

/* Relabel n unsigned page numbers of width bytes (4 or 8) to dense
 * ids: ids[i] is pages[i]'s id and page_of[id] its page.  Returns the
 * number of distinct pages, or FS_ERR_KEY on a page >= 2**63. */
static int64_t bank_relabel(const void *pages, int64_t width, int64_t n, int32_t *ids,
                            int64_t *page_of, Relabel *t) {
    int64_t cap = t->cap_max < RELABEL_MIN_CAP ? t->cap_max : RELABEL_MIN_CAP;
    uint64_t mask = (uint64_t)cap - 1;
    int64_t unique = 0, prev = -1;
    relabel_fill(t, cap, page_of, 0);
    for (int64_t i = 0; i < n; i++) {
        int64_t page = width == 4 ? (int64_t)((const uint32_t *)pages)[i]
                                  : ((const int64_t *)pages)[i];
        if (page < 0) return FS_ERR_KEY;
        if (page == prev) { /* tap streams repeat a page back to back */
            ids[i] = ids[i - 1];
            continue;
        }
        prev = page;
        uint64_t h = map_hash(page) & mask;
        while (t->keys[h] != -1 && t->keys[h] != page) h = (h + 1) & mask;
        if (t->keys[h] == -1) {
            if (2 * (unique + 1) > cap) { /* cap < 2n <= cap_max: room to double */
                cap <<= 1;
                mask = (uint64_t)cap - 1;
                relabel_fill(t, cap, page_of, unique);
                h = map_hash(page) & mask;
                while (t->keys[h] != -1) h = (h + 1) & mask;
            }
            t->keys[h] = page;
            t->ids[h] = (int32_t)unique;
            page_of[unique++] = page;
        }
        ids[i] = t->ids[h];
    }
    return unique;
}

/* Victim draws of one bank member: random.Random's _randbelow(assoc),
 * i.e. getrandbits(k) with k = assoc.bit_length(), redrawn until below
 * assoc.  The generator is seeded from seed on the first eviction
 * while seeded is 0, so direct-mapped and never-full members seed
 * nothing.  With batched set (assoc a power of two), a k-bit draw is
 * below assoc exactly when the word's top bit is clear: the words are
 * generated a block at a time and the accepted ones kept, without a
 * branch per word, giving the same accepted sequence (the generator's
 * final position differs, so only counts-only replays batch). */
typedef struct {
    MT mt;
    uint64_t seed;
    int seeded, batched;
    uint32_t words[MT_N]; /* accepted words of the current block */
} Victims;

static void victims_init(Victims *v, int32_t assoc, uint64_t seed, int batched) {
    v->seed = seed;
    v->seeded = 0;
    v->batched = batched && !(assoc & (assoc - 1));
}

/* Fill words from the next block; returns how many were accepted.
 * The generator is always at a block boundary here: seeding leaves it
 * at one, and fills take whole blocks. */
static int victims_fill(Victims *v) {
    int n = 0;
    mt_twist(&v->mt);
    v->mt.index = MT_N;
    for (int i = 0; i < MT_N; i++) {
        uint32_t y = mt_temper(v->mt.mt[i]);
        v->words[n] = y;
        n += !(y >> 31);
    }
    return n;
}

/* One geometry (sets a power of two, assoc ways) replayed over a
 * relabelled stream; returns its misses.  res (one byte per id) and
 * lens (sets) must be zero on entry; tags (sets * assoc ids) and lens
 * hold the final contents on return.  The draw state lives in locals,
 * which the byte stores to res could otherwise force back to memory. */
static int64_t bank_replay(const int32_t *ids, const int64_t *page_of, int64_t n, int64_t sets,
                           int32_t assoc, Victims *v, int32_t *tags, int32_t *lens,
                           uint8_t *res) {
    const int64_t mask = sets - 1;
    const int bits = bit_length32((uint32_t)assoc);
    const int batched = v->batched;
    int seeded = v->seeded, next = 0, avail = 0;
    int64_t misses = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t id = ids[i];
        if (res[id]) continue;
        misses++;
        int64_t set = page_of[id] & mask;
        int32_t *ways = tags + set * assoc;
        int32_t len = lens[set];
        if (len < assoc) {
            ways[len] = id;
            lens[set] = len + 1;
        } else {
            uint32_t way = 0;
            if (assoc > 1) {
                if (!seeded) {
                    mt_seed(&v->mt, v->seed);
                    seeded = 1;
                }
                if (batched) {
                    while (next == avail) {
                        avail = victims_fill(v);
                        next = 0;
                    }
                    way = v->words[next++] >> (32 - bits);
                } else {
                    way = mt_getrandbits(&v->mt, bits);
                    while (way >= (uint32_t)assoc) way = mt_getrandbits(&v->mt, bits);
                }
            }
            res[ways[way]] = 0;
            ways[way] = id;
        }
        res[id] = 1;
    }
    v->seeded = seeded;
    return misses;
}

static inline int bank_geometry_ok(int64_t sets, int64_t assoc) {
    return sets > 0 && !(sets & (sets - 1)) && assoc > 0 && assoc <= INT32_MAX;
}

/* Replay scratch, sized for the longest stream and the largest
 * geometry of a call (one per worker in fs_bank_run_set). */
typedef struct {
    int32_t *ids;
    int64_t *page_of;
    uint8_t *res;
    int32_t *tags, *lens;
    Relabel map;
} BankScratch;

static int bank_scratch_init(BankScratch *w, int64_t n, int64_t max_entries, int64_t max_sets) {
    w->ids = (int32_t *)malloc(sizeof(int32_t) * n);
    w->page_of = (int64_t *)malloc(sizeof(int64_t) * n);
    w->res = (uint8_t *)malloc((size_t)n);
    w->tags = (int32_t *)malloc(sizeof(int32_t) * max_entries);
    w->lens = (int32_t *)malloc(sizeof(int32_t) * max_sets);
    int map_ok = relabel_init(&w->map, n) == 0;
    return map_ok && w->ids && w->page_of && w->res && w->tags && w->lens ? 0 : -1;
}

static void bank_scratch_free(BankScratch *w) {
    free(w->ids);
    free(w->page_of);
    free(w->res);
    free(w->tags);
    free(w->lens);
    relabel_free(&w->map);
}

/* One TranslationBuffer replayed over one recorded tap stream, with
 * its state carried in and out -- the coupled StudyAgent sweep's bank
 * kernel.  rng_state (625 words, random.Random layout) is read on
 * entry and overwritten with the post-run state; tags/lens receive the
 * final contents (sets*assoc / sets slots).  Returns the miss count,
 * or a negative FS_ERR_* status. */
int64_t fs_bank_run(int64_t entries, int64_t sets, int64_t assoc, uint32_t *rng_state,
                    const int64_t *pages, int64_t n, int64_t *tags, int32_t *lens) {
    (void)entries; /* == sets * assoc */
    if (!bank_geometry_ok(sets, assoc) || n < 0 || n > INT32_MAX) return FS_ERR_KEY;
    memset(lens, 0, sizeof(int32_t) * (size_t)sets);
    if (n == 0) return 0;
    BankScratch w;
    int64_t misses = FS_ERR_INTERNAL;
    if (bank_scratch_init(&w, n, sets * assoc, sets)) goto out;
    int64_t unique = bank_relabel(pages, 8, n, w.ids, w.page_of, &w.map);
    if (unique < 0) {
        misses = unique;
        goto out;
    }
    memset(w.res, 0, (size_t)unique);
    Victims victims;
    victims_init(&victims, (int32_t)assoc, 0, 0);
    victims.seeded = 1;
    mt_load(&victims.mt, rng_state);
    misses = bank_replay(w.ids, w.page_of, n, sets, (int32_t)assoc, &victims, w.tags, lens, w.res);
    for (int64_t set = 0; set < sets; set++)
        for (int32_t way = 0; way < lens[set]; way++)
            tags[set * assoc + way] = w.page_of[w.tags[set * assoc + way]];
    memcpy(rng_state, victims.mt.mt, MT_N * sizeof(uint32_t));
    rng_state[MT_N] = (uint32_t)victims.mt.index;
out:
    bank_scratch_free(&w);
    return misses;
}

/* ---- a whole trace set in one call, streams spread over threads ---- */

/* Upper bound on worker threads per call, whatever the caller asks. */
#define BANK_MAX_THREADS 64

/* One fs_bank_run_set call: its inputs and outputs, and the queue of
 * streams its workers claim. */
typedef struct {
    const void *const *pages;
    const int64_t *widths, *lens;
    int64_t ngeo;
    const int64_t *sets, *assoc;
    const uint64_t *seeds;
    int64_t *misses;
    const int64_t *order; /* the non-empty streams, longest first */
    int64_t ntasks;
    atomic_llong next;  /* index into order of the next unclaimed stream */
    atomic_int failed;  /* a stream held a page >= 2**63 */
} BankSet;

typedef struct {
    BankSet *set;
    BankScratch scratch;
    pthread_t thread;
    int started;
} BankWorker;

/* One task: relabel stream s once, then replay every geometry over it
 * into s's own output slots. */
static int64_t bank_stream(const BankSet *b, BankScratch *w, int64_t s) {
    int64_t n = b->lens[s];
    int64_t unique = bank_relabel(b->pages[s], b->widths[s], n, w->ids, w->page_of, &w->map);
    if (unique < 0) return unique;
    for (int64_t g = 0; g < b->ngeo; g++) {
        Victims victims;
        victims_init(&victims, (int32_t)b->assoc[g], b->seeds[s * b->ngeo + g], 1);
        memset(w->res, 0, (size_t)unique);
        memset(w->lens, 0, sizeof(int32_t) * (size_t)b->sets[g]);
        b->misses[s * b->ngeo + g] = bank_replay(w->ids, w->page_of, n, b->sets[g],
                                                 (int32_t)b->assoc[g], &victims, w->tags,
                                                 w->lens, w->res);
    }
    return 0;
}

static void *bank_worker(void *arg) {
    BankWorker *w = (BankWorker *)arg;
    BankSet *b = w->set;
    for (;;) {
        long long k = atomic_fetch_add(&b->next, 1);
        if (k >= b->ntasks) break;
        if (bank_stream(b, &w->scratch, b->order[k]) < 0) atomic_store(&b->failed, 1);
    }
    return NULL;
}

static int bank_longest_first(const void *a, const void *b) {
    const int64_t *x = (const int64_t *)a, *y = (const int64_t *)b; /* {len, stream} */
    if (x[0] != y[0]) return x[0] > y[0] ? -1 : 1;
    return x[1] < y[1] ? -1 : x[1] > y[1];
}

/* Every bank member replayed over every recorded tap stream of a set,
 * counts only -- the record/replay pipeline's kernel, one call per
 * trace set.  Stream s holds lens[s] unsigned page numbers of widths[s]
 * bytes (4 or 8: recorded columns are stored narrow when they fit);
 * geometry g of stream s draws victims from random.Random(seeds[s *
 * ngeo + g]) and its misses land in misses_out[s * ngeo + g].
 *
 * Up to nthreads workers (the calling thread is one) claim streams,
 * longest first, from a shared counter, so a slow core takes fewer.
 * Each stream writes only its own slots and each geometry draws from
 * its own generator, so the counts are the same for any thread count.
 * Threads are created and joined inside the call with every signal
 * blocked, and all scratch is allocated here, before any starts.
 * Returns 0, FS_ERR_KEY on a page >= 2**63 or a bad width, length or
 * geometry, FS_ERR_INTERNAL on allocation failure. */
int64_t fs_bank_run_set(int64_t nstreams, const void *const *pages, const int64_t *widths,
                        const int64_t *lens, int64_t ngeo, const int64_t *sets,
                        const int64_t *assoc, const uint64_t *seeds, int64_t *misses_out,
                        int64_t nthreads) {
    int64_t max_sets = 1, max_entries = 1;
    if (nstreams < 0 || ngeo < 0) return FS_ERR_KEY;
    for (int64_t i = 0; i < nstreams * ngeo; i++) misses_out[i] = 0;
    for (int64_t g = 0; g < ngeo; g++) {
        if (!bank_geometry_ok(sets[g], assoc[g])) return FS_ERR_KEY;
        if (sets[g] > max_sets) max_sets = sets[g];
        if (sets[g] * assoc[g] > max_entries) max_entries = sets[g] * assoc[g];
    }
    int64_t ntasks = 0;
    for (int64_t s = 0; s < nstreams; s++) {
        if ((widths[s] != 4 && widths[s] != 8) || lens[s] < 0 || lens[s] > INT32_MAX)
            return FS_ERR_KEY;
        ntasks += lens[s] > 0;
    }
    if (!ntasks || !ngeo) return 0;

    int64_t status = FS_ERR_INTERNAL;
    int64_t *keyed = (int64_t *)malloc(sizeof(int64_t) * 2 * ntasks);
    int64_t *order = (int64_t *)malloc(sizeof(int64_t) * ntasks);
    if (nthreads > ntasks) nthreads = ntasks;
    if (nthreads > BANK_MAX_THREADS) nthreads = BANK_MAX_THREADS;
    if (nthreads < 1) nthreads = 1;
    BankWorker *workers = (BankWorker *)calloc((size_t)nthreads, sizeof(BankWorker));
    if (!keyed || !order || !workers) goto out;
    for (int64_t s = 0, t = 0; s < nstreams; s++) {
        if (!lens[s]) continue;
        keyed[2 * t] = lens[s];
        keyed[2 * t + 1] = s;
        t++;
    }
    qsort(keyed, (size_t)ntasks, 2 * sizeof(int64_t), bank_longest_first);
    for (int64_t t = 0; t < ntasks; t++) order[t] = keyed[2 * t + 1];

    BankSet set = {.pages = pages, .widths = widths, .lens = lens, .ngeo = ngeo, .sets = sets,
                   .assoc = assoc, .seeds = seeds, .misses = misses_out, .order = order,
                   .ntasks = ntasks};
    atomic_init(&set.next, 0);
    atomic_init(&set.failed, 0);
    for (int64_t t = 0; t < nthreads; t++) {
        workers[t].set = &set;
        if (bank_scratch_init(&workers[t].scratch, keyed[0], max_entries, max_sets)) goto out;
    }

    /* Workers inherit the creator's signal mask: start them with every
       signal blocked, so signals stay with the calling thread.  A
       worker that fails to start just leaves its streams to the rest. */
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (int64_t t = 1; t < nthreads; t++)
        workers[t].started =
            pthread_create(&workers[t].thread, NULL, bank_worker, &workers[t]) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    bank_worker(&workers[0]);
    for (int64_t t = 1; t < nthreads; t++)
        if (workers[t].started) pthread_join(workers[t].thread, NULL);
    status = atomic_load(&set.failed) ? FS_ERR_KEY : 0;
out:
    for (int64_t t = 0; workers && t < nthreads; t++) bank_scratch_free(&workers[t].scratch);
    free(workers);
    free(keyed);
    free(order);
    return status;
}

/* ------------------------------------------------------------------ */
/* trace rendering: packed binary trace records -> JSONL text          */
/*                                                                     */
/* The tracer (repro.obs.trace) batches hot records as                 */
/* [u8 codec_id][n x little-endian int64] and registers, per codec,    */
/* the literal JSON segments between value slots plus one kind byte    */
/* per slot: 0 = int, 1 = int rendered as null when negative,          */
/* 2 = index into a shared string table (enum choices, "true"/"false").*/
/* Rendering here must be byte-identical to the tracer's Python        */
/* fallback (and to its generic dict encoder) -- the Python side       */
/* self-checks every codec against the generic encoder at creation.    */
/* ------------------------------------------------------------------ */

static char *tr_itoa(char *o, int64_t v) {
    char tmp[24];
    int n = 0;
    uint64_t u = (v < 0) ? (uint64_t)(-(v + 1)) + 1u : (uint64_t)v;
    if (v < 0) *o++ = '-';
    do {
        tmp[n++] = (char)('0' + (u % 10u));
        u /= 10u;
    } while (u);
    while (n) *o++ = tmp[--n];
    return o;
}

/* Returns bytes written, -1 if `cap` is too small (caller grows and
 * retries), -2 on a malformed stream/table. */
int64_t fs_trace_render(const char *stream_, int64_t nbytes,
                        const int32_t *nslots, const int32_t *kind_off,
                        const char *kinds_,
                        const char *segs, const int64_t *seg_off,
                        const int32_t *seg_base,
                        const char *strs, const int64_t *str_off, int64_t nstr,
                        char *out, int64_t cap) {
    const uint8_t *p = (const uint8_t *)stream_;
    const uint8_t *pe = p + nbytes;
    const uint8_t *kinds = (const uint8_t *)kinds_;
    char *o = out;
    char *oe = out + cap;
    while (p < pe) {
        int c = *p++;
        int ns = nslots[c];
        if (p + 8 * ns > pe) return -2;
        int kbase = kind_off[c];
        int sbase = seg_base[c];
        for (int j = 0; j <= ns; j++) {
            int64_t s0 = seg_off[sbase + j];
            int64_t s1 = seg_off[sbase + j + 1];
            if (o + (s1 - s0) + 24 > oe) return -1;
            memcpy(o, segs + s0, (size_t)(s1 - s0));
            o += s1 - s0;
            if (j == ns) break;
            int64_t v;
            memcpy(&v, p, 8); /* stream is little-endian, like the host */
            p += 8;
            uint8_t k = kinds[kbase + j];
            if (k == 2) {
                if (v < 0 || v >= nstr) return -2;
                int64_t t0 = str_off[v];
                int64_t t1 = str_off[v + 1];
                if (o + (t1 - t0) > oe) return -1;
                memcpy(o, strs + t0, (size_t)(t1 - t0));
                o += t1 - t0;
            } else if (k == 1 && v < 0) {
                memcpy(o, "null", 4);
                o += 4;
            } else {
                o = tr_itoa(o, v);
            }
        }
    }
    return o - out;
}
