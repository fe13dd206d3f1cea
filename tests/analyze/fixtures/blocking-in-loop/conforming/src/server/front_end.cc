#include <chrono>
#include <thread>
namespace pcdb {
void FrontEnd::RunLoop() {
  while (true) {
    Poll();
    pool_->Submit([this] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      TcpConnect("upstream", 9000);
      handler_->Query(request, token, 0);
    });
  }
}
void FrontEnd::Poll() {}
void FrontEnd::OffLoop() {
  std::this_thread::sleep_for(std::chrono::seconds(1));
  handler_->Query(request, token, 0);
}
}  // namespace pcdb
