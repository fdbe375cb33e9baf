// generated from ETIR gemm|L2@0|s:4x4;32x16;1x1|r:2;8;1|v:1x1
// launch: <<<dim3(16,8,1), dim3(4,8,1), 1536>>>
extern "C" __global__ void gemm_kernel(const float* __restrict__ A, const float* __restrict__ B, float* __restrict__ C) {
  __shared__ float smem_A[256];  // level-1 tile
  __shared__ float smem_B[128];  // level-1 tile
  const int i_block = blockIdx.y * 32;
  const int j_block = blockIdx.x * 16;
  float acc[16];
  #pragma unroll
  for (int i = 0; i < 16; ++i) acc[i] = 0f;
  for (int k_c1 = 0; k_c1 < 256; k_c1 += 8) {
    // cooperative staging of the level-1 input slices
    for (int s = threadIdx.x; s < 256; s += blockDim.x) smem_A[s] = A[/* level-1 slice offset */ s];
    for (int s = threadIdx.x; s < 128; s += blockDim.x) smem_B[s] = B[/* level-1 slice offset */ s];
    __syncthreads();
    for (int i_vt = 0; i_vt < 1; ++i_vt) {  // vthread stripes
    for (int i_e = 0; i_e < 4; ++i_e) {
    const int i = i_block + ((i_vt * 8 + threadIdx.y) * 4) + i_e;
    for (int j_vt = 0; j_vt < 1; ++j_vt) {  // vthread stripes
    for (int j_e = 0; j_e < 4; ++j_e) {
    const int j = j_block + ((j_vt * 4 + threadIdx.x) * 4) + j_e;
    #pragma unroll
    for (int k_u = 0; k_u < 2; ++k_u) {
    const int k = k_c1 + k_u;
    acc[0] += (A[i][k] * B[k][j]);
    }
    // end reduce element
    }
    }
    }
    }
    __syncthreads();
  }
  // epilogue: write back the accumulator tile
  C[i_block][j_block] = acc[0];
}
// host
dim3 grid(16, 8, 1);
dim3 block(4, 8, 1);
gemm_kernel<<<grid, block, 1536>>>(A, B, C);
