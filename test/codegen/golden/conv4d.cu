// generated from ETIR conv2d|L2@2|s:1x2x1x5;1x4x5x10;1x1x1x1|r:1x1x1;4x1x1;1x1x1|v:1x1x1x1
// launch: <<<dim3(1,2,16), dim3(2,5,2), 864>>>
extern "C" __global__ void conv2d_kernel(const float* __restrict__ I, const float* __restrict__ K, float* __restrict__ O) {
  __shared__ float smem_I[200];  // level-1 tile
  __shared__ float smem_K[16];  // level-1 tile
  const int n_block = (blockIdx.z / 4 % 4) * 1;
  const int f_block = (blockIdx.z / 1 % 4) * 4;
  const int x_block = blockIdx.y * 5;
  const int y_block = blockIdx.x * 10;
  float acc[10];
  #pragma unroll
  for (int i = 0; i < 10; ++i) acc[i] = 0f;
  for (int c_c1 = 0; c_c1 < 8; c_c1 += 4) {
  for (int rx_c1 = 0; rx_c1 < 3; rx_c1 += 1) {
  for (int ry_c1 = 0; ry_c1 < 3; ry_c1 += 1) {
    // cooperative staging of the level-1 input slices
    for (int s = threadIdx.x; s < 200; s += blockDim.x) smem_I[s] = I[/* level-1 slice offset */ s];
    for (int s = threadIdx.x; s < 16; s += blockDim.x) smem_K[s] = K[/* level-1 slice offset */ s];
    __syncthreads();
    for (int n_vt = 0; n_vt < 1; ++n_vt) {  // vthread stripes
    for (int n_e = 0; n_e < 1; ++n_e) {
    const int n = n_block + ((n_vt * 1 + (threadIdx.z / 2 % 1)) * 1) + n_e;
    for (int f_vt = 0; f_vt < 1; ++f_vt) {  // vthread stripes
    for (int f_e = 0; f_e < 2; ++f_e) {
    const int f = f_block + ((f_vt * 2 + (threadIdx.z / 1 % 2)) * 2) + f_e;
    for (int x_vt = 0; x_vt < 1; ++x_vt) {  // vthread stripes
    for (int x_e = 0; x_e < 1; ++x_e) {
    const int x = x_block + ((x_vt * 5 + threadIdx.y) * 1) + x_e;
    for (int y_vt = 0; y_vt < 1; ++y_vt) {  // vthread stripes
    for (int y_e = 0; y_e < 5; ++y_e) {
    const int y = y_block + ((y_vt * 2 + threadIdx.x) * 5) + y_e;
    #pragma unroll
    for (int c_u = 0; c_u < 1; ++c_u) {
    const int c = c_c1 + c_u;
    #pragma unroll
    for (int rx_u = 0; rx_u < 1; ++rx_u) {
    const int rx = rx_c1 + rx_u;
    #pragma unroll
    for (int ry_u = 0; ry_u < 1; ++ry_u) {
    const int ry = ry_c1 + ry_u;
    acc[0] += (I[n][c][(x + rx)][(y + ry)] * K[f][c][rx][ry]);
    }
    // end reduce element
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
  }
  // epilogue: write back the accumulator tile
  O[n_block][f_block][x_block][y_block] = acc[0];
}
// host
dim3 grid(1, 2, 16);
dim3 block(2, 5, 2);
conv2d_kernel<<<grid, block, 864>>>(I, K, O);
