// generated from ETIR relu|L2@2|s:1x4;8x32;1x1|r:1;1;1|v:1x1
// launch: <<<dim3(2,4,1), dim3(8,8,1), 1024>>>
extern "C" __global__ void relu_kernel(const float* __restrict__ X, float* __restrict__ O) {
  __shared__ float smem_X[256];  // level-1 tile
  const int d0_block = blockIdx.y * 8;
  const int d1_block = blockIdx.x * 32;
  float acc[4];
  #pragma unroll
  for (int i = 0; i < 4; ++i) acc[i] = 0f;
    for (int d0_vt = 0; d0_vt < 1; ++d0_vt) {  // vthread stripes
    for (int d0_e = 0; d0_e < 1; ++d0_e) {
    const int d0 = d0_block + ((d0_vt * 8 + threadIdx.y) * 1) + d0_e;
    for (int d1_vt = 0; d1_vt < 1; ++d1_vt) {  // vthread stripes
    for (int d1_e = 0; d1_e < 4; ++d1_e) {
    const int d1 = d1_block + ((d1_vt * 8 + threadIdx.x) * 4) + d1_e;
    acc[0] += fmaxf(X[d0][d1], 0f);
    }
    }
    }
    }
  // epilogue: write back the accumulator tile
  O[d0_block][d1_block] = acc[0];
}
// host
dim3 grid(2, 4, 1);
dim3 block(8, 8, 1);
relu_kernel<<<grid, block, 1024>>>(X, O);
