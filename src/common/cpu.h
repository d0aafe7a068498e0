#ifndef MLFS_COMMON_CPU_H_
#define MLFS_COMMON_CPU_H_

namespace mlfs {

/// True when this CPU runs AVX2 and FMA: the one feature check behind the
/// runtime-dispatched x86 kernels (embedding distances and the VM's typed
/// kernels). Always false off x86.
inline bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace mlfs

#endif  // MLFS_COMMON_CPU_H_
