// generated from ETIR maxpool2d|L2@2|s:1x1x1x2;1x1x2x4;1x1x1x1|r:1x1;1x1;1x1|v:1x1x1x1
// launch: <<<dim3(1,2,16), dim3(2,2,1), 84>>>
extern "C" __global__ void maxpool2d_kernel(const float* __restrict__ I, float* __restrict__ O) {
  __shared__ float smem_I[21];  // level-1 tile
  const int n_block = (blockIdx.z / 8 % 2) * 1;
  const int c_block = (blockIdx.z / 1 % 8) * 1;
  const int x_block = blockIdx.y * 2;
  const int y_block = blockIdx.x * 4;
  float acc[2];
  #pragma unroll
  for (int i = 0; i < 2; ++i) acc[i] = -inff;
  for (int i_c1 = 0; i_c1 < 2; i_c1 += 1) {
  for (int j_c1 = 0; j_c1 < 2; j_c1 += 1) {
    // cooperative staging of the level-1 input slices
    for (int s = threadIdx.x; s < 21; s += blockDim.x) smem_I[s] = I[/* level-1 slice offset */ s];
    __syncthreads();
    for (int n_vt = 0; n_vt < 1; ++n_vt) {  // vthread stripes
    for (int n_e = 0; n_e < 1; ++n_e) {
    const int n = n_block + ((n_vt * 1 + (threadIdx.z / 1 % 1)) * 1) + n_e;
    for (int c_vt = 0; c_vt < 1; ++c_vt) {  // vthread stripes
    for (int c_e = 0; c_e < 1; ++c_e) {
    const int c = c_block + ((c_vt * 1 + (threadIdx.z / 1 % 1)) * 1) + c_e;
    for (int x_vt = 0; x_vt < 1; ++x_vt) {  // vthread stripes
    for (int x_e = 0; x_e < 1; ++x_e) {
    const int x = x_block + ((x_vt * 2 + threadIdx.y) * 1) + x_e;
    for (int y_vt = 0; y_vt < 1; ++y_vt) {  // vthread stripes
    for (int y_e = 0; y_e < 2; ++y_e) {
    const int y = y_block + ((y_vt * 2 + threadIdx.x) * 2) + y_e;
    #pragma unroll
    for (int i_u = 0; i_u < 1; ++i_u) {
    const int i = i_c1 + i_u;
    #pragma unroll
    for (int j_u = 0; j_u < 1; ++j_u) {
    const int j = j_c1 + j_u;
    acc[0] = fmaxf(acc[0], I[n][c][((2 * x) + i)][((2 * y) + j)]);
    }
    // end reduce element
    }
    // end reduce element
    }
    }
    }
    }
    }
    }
    }
    }
    __syncthreads();
  }
  }
  // epilogue: write back the accumulator tile
  O[n_block][c_block][x_block][y_block] = acc[0];
}
// host
dim3 grid(1, 2, 16);
dim3 block(2, 2, 1);
maxpool2d_kernel<<<grid, block, 84>>>(I, O);
