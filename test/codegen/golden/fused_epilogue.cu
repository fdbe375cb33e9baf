// generated from ETIR scores+bias_relu|L2@2|s:2x4;16x16;1x1|r:4;8;1|v:1x1
// launch: <<<dim3(2,4,1), dim3(4,8,1), 1088>>>
extern "C" __global__ void scores_bias_relu_kernel(const float* __restrict__ A, const float* __restrict__ B, const float* __restrict__ bias, float* __restrict__ C) {
  __shared__ float smem_A[128];  // level-1 tile
  __shared__ float smem_B[128];  // level-1 tile
  __shared__ float smem_bias[16];  // level-1 tile
  const int i_block = blockIdx.y * 16;
  const int j_block = blockIdx.x * 16;
  float acc[8];
  #pragma unroll
  for (int i = 0; i < 8; ++i) acc[i] = 0f;
  for (int k_c1 = 0; k_c1 < 16; k_c1 += 8) {
    // cooperative staging of the level-1 input slices
    for (int s = threadIdx.x; s < 128; s += blockDim.x) smem_A[s] = A[/* level-1 slice offset */ s];
    for (int s = threadIdx.x; s < 128; s += blockDim.x) smem_B[s] = B[/* level-1 slice offset */ s];
    for (int s = threadIdx.x; s < 16; s += blockDim.x) smem_bias[s] = bias[/* level-1 slice offset */ s];
    __syncthreads();
    for (int i_vt = 0; i_vt < 1; ++i_vt) {  // vthread stripes
    for (int i_e = 0; i_e < 2; ++i_e) {
    const int i = i_block + ((i_vt * 8 + threadIdx.y) * 2) + i_e;
    for (int j_vt = 0; j_vt < 1; ++j_vt) {  // vthread stripes
    for (int j_e = 0; j_e < 4; ++j_e) {
    const int j = j_block + ((j_vt * 4 + threadIdx.x) * 4) + j_e;
    #pragma unroll
    for (int k_u = 0; k_u < 4; ++k_u) {
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
  // epilogue: fused pointwise tail over the accumulator tile
  C[i_block][j_block] = fmaxf(((acc[0] * 0.125f) + bias[j_block]), 0f);
}
// host
dim3 grid(2, 4, 1);
dim3 block(4, 8, 1);
scores_bias_relu_kernel<<<grid, block, 1088>>>(A, B, bias, C);
