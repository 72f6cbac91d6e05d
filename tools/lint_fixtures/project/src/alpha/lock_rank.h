// Fixture rank constants. Two [lock-rank-unknown] plants:
// kLockRankAlphaGhost's rank name is not in tools/lock_ranks.txt, and
// kLockRankAlphaBase's tier is not an integer literal (read as 0, it would
// match alpha.base's registry tier).
#ifndef NEBULA_ALPHA_LOCK_RANK_H_
#define NEBULA_ALPHA_LOCK_RANK_H_

struct LockRank {
  const char* name;
  int tier;
};

inline constexpr int kBaseTier = 0;
inline constexpr LockRank kLockRankAlphaBase = {"alpha.base", kBaseTier};
inline constexpr LockRank kLockRankAlphaOuter = {"alpha.outer", 10};
inline constexpr LockRank kLockRankAlphaInner = {"alpha.inner", 20};
inline constexpr LockRank kLockRankAlphaGhost = {"alpha.ghost", 30};

#endif  // NEBULA_ALPHA_LOCK_RANK_H_
